import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from dccluster.metrics import (ari, nmi, acc, contingency, max_assignment,
                               score_all)


# --- independent oracles built from the definitions, not the implementation

def ari_oracle(y_true, y_pred):
    """Pair-counting over all point pairs, no contingency shortcuts."""
    n = len(y_true)
    both = same_t = same_p = 0
    for i in range(n):
        for j in range(i + 1, n):
            t = y_true[i] == y_true[j]
            p = y_pred[i] == y_pred[j]
            both += t and p
            same_t += t
            same_p += p
    total = n * (n - 1) // 2
    if total == 0:
        return 1.0          # a lone point has no pairs to disagree on
    expected = same_t * same_p / total
    maximum = (same_t + same_p) / 2
    if maximum == expected:
        return 1.0
    return (both - expected) / (maximum - expected)


def nmi_oracle(y_true, y_pred):
    n = len(y_true)
    ts, ps = sorted(set(y_true)), sorted(set(y_pred))
    pt = {t: sum(1 for y in y_true if y == t) / n for t in ts}
    pp = {p: sum(1 for y in y_pred if y == p) / n for p in ps}
    mi = 0.0
    for t in ts:
        for p in ps:
            joint = sum(1 for a, b in zip(y_true, y_pred)
                        if a == t and b == p) / n
            if joint > 0:
                mi += joint * math.log(joint / (pt[t] * pp[p]))
    ht = -sum(v * math.log(v) for v in pt.values())
    hp = -sum(v * math.log(v) for v in pp.values())
    if ht == 0.0 and hp == 0.0:
        return 1.0
    if ht == 0.0 or hp == 0.0:
        return 0.0
    return mi / math.sqrt(ht * hp)


def acc_oracle(y_true, y_pred):
    """Best label matching by brute force over permutations."""
    ts, ps = sorted(set(y_true)), sorted(set(y_pred))
    size = max(len(ts), len(ps))
    best = 0
    for perm in itertools.permutations(range(size)):
        mapping = {p: perm[i] for i, p in enumerate(ps)}
        t_code = {t: i for i, t in enumerate(ts)}
        hits = sum(1 for a, b in zip(y_true, y_pred)
                   if t_code[a] == mapping[b])
        best = max(best, hits)
    return best / len(y_true)


def random_pair(rng):
    n = int(rng.integers(2, 16))
    kt = int(rng.integers(1, 6))
    kp = int(rng.integers(1, 6))
    return rng.integers(0, kt, size=n), rng.integers(0, kp, size=n)


class TestAgainstOracles:
    def test_seeded_pairs(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            y_true, y_pred = random_pair(rng)
            assert ari(y_true, y_pred) == pytest.approx(
                ari_oracle(y_true.tolist(), y_pred.tolist()), abs=1e-12)
            assert nmi(y_true, y_pred) == pytest.approx(
                nmi_oracle(y_true.tolist(), y_pred.tolist()), abs=1e-12)
            assert acc(y_true, y_pred) == pytest.approx(
                acc_oracle(y_true.tolist(), y_pred.tolist()), abs=1e-12)


class TestKnownValues:
    def test_identical_partitions(self):
        y = np.array([0, 0, 1, 1, 2, 2])
        assert ari(y, y) == 1.0
        assert nmi(y, y) == pytest.approx(1.0)
        assert acc(y, y) == 1.0

    def test_identical_up_to_relabeling(self):
        y = np.array([0, 0, 1, 1, 2])
        z = np.array([2, 2, 0, 0, 1])
        assert ari(y, z) == pytest.approx(1.0)
        assert nmi(y, z) == pytest.approx(1.0)
        assert acc(y, z) == 1.0

    def test_single_cluster_both(self):
        y = np.zeros(5, dtype=int)
        assert ari(y, y) == 1.0
        assert nmi(y, y) == 1.0
        assert acc(y, y) == 1.0

    def test_one_sided_single_cluster(self):
        y = np.array([0, 0, 1, 1])
        z = np.zeros(4, dtype=int)
        assert nmi(y, z) == 0.0
        assert acc(y, z) == 0.5

    def test_independent_labels_near_zero_ari(self):
        rng = np.random.default_rng(77)
        vals = [ari(rng.integers(0, 3, 60), rng.integers(0, 3, 60))
                for _ in range(50)]
        assert abs(np.mean(vals)) < 0.05

    def test_acc_half(self):
        y = np.array([0, 0, 1, 1])
        z = np.array([0, 1, 0, 1])
        assert acc(y, z) == 0.5

    def test_acc_with_more_predicted_clusters(self):
        y = np.array([0, 0, 0, 1, 1, 1])
        z = np.array([0, 0, 1, 2, 2, 2])
        # best mapping keeps clusters 0 and 2, cluster 1 is unmatched
        assert acc(y, z) == pytest.approx(5 / 6)


def brute_max_assignment(table):
    """The best sum over every placement of the shorter side's entries."""
    if table.shape[0] > table.shape[1]:
        table = table.T
    rows, cols = table.shape
    return max(sum(int(table[i, j]) for i, j in enumerate(placement))
               for placement in itertools.permutations(range(cols), rows))


class TestMaxAssignment:
    @pytest.mark.parametrize("cols", range(1, 7))
    @pytest.mark.parametrize("rows", range(1, 7))
    def test_brute_force_on_every_shape_to_6(self, rows, cols):
        # all-zero and all-tied tables, then random ones whose entries are
        # drawn from 2, 3 and 50 values, so that ties abound in the first
        rng = np.random.default_rng(10 * rows + cols)
        tables = [np.zeros((rows, cols), np.int64),
                  np.full((rows, cols), 7, np.int64)]
        tables += [rng.integers(0, high, size=(rows, cols))
                   for high in (2, 3, 50) for _ in range(10)]
        for table in tables:
            assert max_assignment(table) == brute_max_assignment(table)

    def test_scipy_on_tables_to_40_a_side(self):
        rng = np.random.default_rng(40)
        for _ in range(300):
            rows, cols = rng.integers(1, 41, size=2)
            table = rng.integers(0, int(rng.integers(1, 60)),
                                 size=(rows, cols))
            picked = linear_sum_assignment(table, maximize=True)
            assert max_assignment(table) == table[picked].sum()

    def test_returns_an_int_of_the_table_as_given(self):
        table = np.array([[5, 1], [4, 4], [0, 9]])
        best = max_assignment(table)
        assert type(best) is int and best == 14
        assert max_assignment(table.T) == best
        assert max_assignment(table.tolist()) == best

    def test_acc_is_the_matched_share(self):
        rng = np.random.default_rng(41)
        y_true, y_pred = rng.integers(0, 4, 200), rng.integers(0, 6, 200)
        assert acc(y_true, y_pred) == (
            max_assignment(contingency(y_true, y_pred)) / 200)


class TestStructure:
    def test_contingency_counts(self):
        y = np.array([0, 0, 1, 1, 1])
        z = np.array([1, 1, 1, 0, 0])
        table = contingency(y, z)
        assert table.tolist() == [[0, 2], [2, 1]]
        assert table.sum() == 5

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            a, b = random_pair(rng)
            assert ari(a, b) == pytest.approx(ari(b, a), abs=1e-12)
            assert nmi(a, b) == pytest.approx(nmi(b, a), abs=1e-12)

    def test_ranges(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            a, b = random_pair(rng)
            assert -1.0 - 1e-12 <= ari(a, b) <= 1.0 + 1e-12
            assert -1e-12 <= nmi(a, b) <= 1.0 + 1e-12
            assert 0.0 <= acc(a, b) <= 1.0

    def test_length_mismatch(self):
        with pytest.raises(Exception):
            ari(np.array([0, 1]), np.array([0, 1, 2]))

    def test_score_all_keys(self):
        y = np.array([0, 1, 0, 1])
        s = score_all(y, y)
        assert set(s) == {"ari", "nmi", "acc"}
        assert all(v == pytest.approx(1.0) for v in s.values())

    @pytest.mark.parametrize("case", ["random", "single-cluster",
                                      "mismatched-counts", "lone-point"])
    def test_score_all_equals_the_three_calls(self, case):
        # score_all builds one contingency table for all three indices
        rng = np.random.default_rng(3)
        y = rng.integers(0, 3, 150)
        y_true, y_pred = {
            "random": (y, rng.integers(0, 3, 150)),
            "single-cluster": (y, np.zeros(150, dtype=int)),
            "mismatched-counts": (y, rng.integers(-2, 5, 150) * 10),
            "lone-point": (np.array([4]), np.array([1])),
        }[case]
        assert score_all(y_true, y_pred) == {"ari": ari(y_true, y_pred),
                                             "nmi": nmi(y_true, y_pred),
                                             "acc": acc(y_true, y_pred)}
