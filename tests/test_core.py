from __future__ import annotations

import math
import re
from random import Random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import robustmax.core
from robustmax import (SetFunction, SubmodularCut, check_submodular, empty_set_cuts,
                       generate_instance)
from robustmax.core import TOL, _members, build_cut, build_cuts, dominates, values_in
from robustmax.dcg import strengthen_generating_set

from conftest import (all_subsets, cut_is_valid, modular_fn, random_coverage,
                      scenario_oracle, table_fn, tight_face_rank)
from facets import facet_check


def scalar_check_submodular(fn: SetFunction) -> bool:
    """Reference for the exhaustive check: every (X, j, k) triple, one
    marginal at a time, up to TOL times the largest |f|."""
    n = fn.ground_size
    slack = TOL * max(abs(fn.value(S)) for S in all_subsets(n))
    for mask in range(1 << n):
        base = frozenset(j for j in range(n) if mask >> j & 1)
        out = [j for j in range(n) if not mask >> j & 1]
        for j in out:
            mj = fn.marginal(j, base)
            if mj < -slack:
                return False
            for k in out:
                if k == j:
                    continue
                if fn.marginal(j, base | {k}) > mj + slack:
                    return False
    return True


def scalar_sampled_check_submodular(fn: SetFunction, samples: int, seed: int) -> bool:
    """Reference for the sampled check: the same Random(seed) draws, one
    marginal at a time, stopping at the first violation."""
    n = fn.ground_size
    slack = TOL * abs(fn.value(range(n)))
    rng = Random(seed)
    for _ in range(samples):
        size = rng.randint(0, n - 2)
        base = frozenset(rng.sample(range(n), size))
        j, k = rng.sample([v for v in range(n) if v not in base], 2)
        mj = fn.marginal(j, base)
        if mj < -slack or fn.marginal(j, base | {k}) > mj + slack:
            return False
    return True


class CoverageFamily:
    """m weighted coverage functions that share one kernel, as a family:
    ``rows`` evaluates each row's members in its own function and records
    the functions each call spans.  Integer weights keep every sum exact,
    so the kernel's values equal the scalar ones with ==."""

    def __init__(self, m: int, n: int, seed: int):
        rng = np.random.default_rng(seed)
        self.covers = rng.random((m, n, 6)) < 0.4
        self.weights = rng.integers(1, 6, 6)
        self.calls: list = []

    def rows(self, scenario_of_row, members):
        self.calls.append(np.asarray(scenario_of_row).tolist())
        covered = (members[:, :, None] & self.covers[scenario_of_row]).any(axis=1)
        return (covered * self.weights).sum(axis=1).astype(float)

    def functions(self) -> list:
        fns = []
        for i, cover in enumerate(self.covers):
            def evaluate(S, cover=cover):
                return float(self.weights[cover[sorted(S)].any(axis=0)].sum()) if S else 0.0
            evaluate.family = (self, i)
            fns.append(SetFunction(len(cover), evaluate))
        return fns


class TestFamilyReads:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8), st.one_of(st.integers(3, 40), st.sampled_from((65, 72))),
           st.integers(0, 2**32 - 1), st.data())
    def test_equals_per_function_reads(self, m, n, seed, data):
        # hits, misses, repeated keys and the full set, in several functions
        # at once: each function's own values, the memo per-function reads
        # leave, and one family call for the misses of one function or more
        family = CoverageFamily(m, n, seed)
        rng = np.random.default_rng(seed)
        members = rng.random((5, n)) < rng.random((5, 1))
        members[0] = True  # the full set
        pool = [sum(1 << j for j in np.flatnonzero(row).tolist()) for row in members]
        reads = st.lists(st.tuples(st.integers(0, m - 1), st.sampled_from(pool)), max_size=30)
        warm, now = data.draw(reads), data.draw(reads)
        fns, alone = family.functions(), CoverageFamily(m, n, seed).functions()
        for sides in (fns, alone):
            for i, key in warm:
                sides[i].values([key])
        keys = [[key for i, key in now if i == f] for f in range(m)]
        misses = [set(fn_keys) - set(fn._cache) for fn, fn_keys in zip(fns, keys)]
        family.calls.clear()
        got = values_in(fns, keys)
        for fn, fn_keys in zip(alone, keys):
            fn.values(fn_keys)
        for fn, fn_keys, row, own in zip(fns, keys, got, alone):
            assert row == [fn._eval(frozenset(j for j in range(n) if key >> j & 1))
                           for key in fn_keys]
            assert fn._cache == own._cache
        missed = [i for i, missing in enumerate(misses) if missing]
        if missed:
            assert len(family.calls) == 1
            assert sorted(family.calls[0]) == sorted(i for i in missed for _ in misses[i])
        else:
            assert family.calls == []  # a read with no miss calls no kernel

    @pytest.mark.parametrize("bad", [1 << 12, -1])
    def test_out_of_range_key_refused_on_family_path(self, bad):
        fns = CoverageFamily(3, 12, 1).functions()
        with pytest.raises(ValueError):
            values_in(fns, [[3], [5, bad], [6]])

    @pytest.mark.parametrize("n, keys, named", [
        (12, [3, 1 << 64, 5], 1 << 64),
        (12, [3, 1 << 70, 5], 1 << 70),
        (12, [1 << 70, -1, 1 << 64], -1),  # a negative key is named first
        (63, [3, -1, 5], -1),
        (64, [3, -1, 5], -1),
        (64, [3, 1 << 64, 5], 1 << 64),
        (63, [3, 1 << 63, 5], 1 << 63),
        (63, [(1 << 64) - 1, 5], (1 << 64) - 1),
    ], ids=["2**64", "2**70", "both-ways", "minus-one-63", "minus-one-64", "2**n-64",
            "2**n-63", "uint64-max-63"])
    def test_refusal_names_the_bitmask(self, n, keys, named):
        # up to 64 elements the misses decode from one uint64 array; a key it
        # cannot hold, or one at or past 2**n, is refused by the same message
        # as the key-by-key check, naming the least key if negative and the
        # largest otherwise
        message = f"bitmask {named} out of range for ground set of size {n}"
        family = CoverageFamily(2, n, 1)
        fns = family.functions()
        plain = SetFunction(n, lambda S: float(len(S)))
        for read in (lambda: values_in(fns, [[6], keys]), lambda: plain.values(keys)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                read()
        assert family.calls == []
        assert [fn._cache for fn in fns + [plain]] == [{0: 0.0}] * 3

    def test_mixed_family_and_plain_functions(self):
        family = CoverageFamily(3, 10, 2)
        fns = family.functions()
        plain = SetFunction(10, lambda S: float(len(S)))
        # plain twice: each entry reads its own keys
        mixed = [fns[0], plain, fns[2], modular_fn(range(1, 11)), plain]
        keys = [[0b1011, 0b1], [0b111, 0b1011], [0b1011, 0b110], [0b101], [0b11, 0b111]]
        got = values_in(mixed, keys)
        assert got[1] == [3.0, 3.0]
        assert got[3] == [4.0]
        assert got[4] == [2.0, 3.0]
        for fn, fn_keys, row in zip(mixed, keys, got):
            assert row == [fn._eval(frozenset(j for j in range(10) if key >> j & 1))
                           for key in fn_keys]
        assert [sorted(call) for call in family.calls] == [[0, 0, 2, 2]]

    def test_needs_one_key_list_per_function(self):
        with pytest.raises(ValueError):
            values_in(CoverageFamily(2, 5, 0).functions(), [[1]])


class Kernel:
    """The source of a family whose kernel is the function ``rows``."""

    def __init__(self, rows):
        self.rows = rows


def batched(fn: SetFunction, calls: list) -> SetFunction:
    """fn's values behind an oracle that is the one member of a family whose
    kernel records the rows of each call."""
    def evaluate(S):
        return fn.value(S)

    def rows(scenario_of_row, members):
        calls.append(members.copy())
        return np.array([fn.value(np.flatnonzero(row).tolist()) for row in members])

    evaluate.family = (Kernel(rows), 0)
    return SetFunction(fn.ground_size, evaluate)


def scalar_build_cut(fn: SetFunction, subset, alpha: float) -> tuple:
    """Reference for build_cut's (constant, coefficients), one marginal at a
    time, the constant's sum exactly rounded."""
    gen = frozenset(subset)
    n = fn.ground_size
    full_minus = {j: fn.marginal(j, frozenset(range(n)) - {j}) for j in gen}
    constant = (fn.value(gen) - math.fsum(full_minus.values())) / alpha
    coeffs = tuple(full_minus[j] / alpha if j in gen else fn.marginal(j, gen) / alpha
                   for j in range(n))
    return constant, coeffs


@st.composite
def set_function_tables(draw):
    """(table of f over all 2^n bitmasks, the verdict its construction
    forces or None).  Noisy coverage straddles the tolerance, TOL times the
    largest value; the concave kind breaks monotonicity only and the joint
    bonus diminishing returns only."""
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(("coverage", "concave of size", "joint bonus", "random")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    expected = None
    if kind == "coverage":
        covers = rng.random((n, 6)) < 0.4
        table = ((bits @ covers) > 0) @ rng.integers(1, 6, 6).astype(float)
        noise = draw(st.sampled_from((0.0, 2e-10, 5e-10, 1e-9)))
        table += noise * table.max() * rng.uniform(-1.0, 1.0, table.shape)
        expected = True if noise == 0.0 else None
    elif kind == "concave of size":
        size = bits.sum(axis=1)
        table = size * (int(rng.integers(0, n)) - size) * rng.uniform(0.1, 3.0)
        expected = False
    elif kind == "joint bonus":
        table = bits @ rng.integers(0, 5, n).astype(float)
        joint = rng.permutation(n)[:max(2, int(rng.integers(0, n + 1)))]
        bonus = draw(st.sampled_from((5e-10, 1e-9, 1.5e-9, 1e-3, 1.0)))
        table += bonus * bits[:, joint].all(axis=1)
        expected = False if n >= 2 and bonus > 2 * TOL * np.abs(table).max() else None
    else:
        table = rng.uniform(-1.0, 3.0, 1 << n)
    table[0] = 0.0
    return table, expected


class TestMarginal:
    def test_modular_additivity(self):
        fn = modular_fn((1, 2))
        assert fn.marginal(1, {0}) == 2

    def test_worked_coverage_pair(self, facet_pair):
        f1, _ = facet_pair
        assert f1.marginal(2, {0, 1}) == 2
        assert f1.marginal(3, {0, 1}) == 3

    def test_member_is_noop(self):
        fn = modular_fn((1, 2, 3))
        assert fn.marginal(1, {0, 1}) == 0.0

    def test_out_of_range_rejected(self):
        fn = modular_fn((1, 2))
        with pytest.raises(ValueError):
            fn.marginal(2, set())
        with pytest.raises(ValueError):
            fn.value({5})

    @pytest.mark.parametrize("size", [0, -3, 2.5, 3.0, True, np.True_, np.float64(3), "3", None],
                             ids=["0", "negative", "float", "integral-float", "bool",
                                  "numpy-bool", "numpy-float", "str", "None"])
    def test_empty_ground_set_rejected(self, size):
        # a ground size is a positive integer, refused at construction, not
        # at the first read of a key
        with pytest.raises(ValueError, match="ground_size must be a positive integer"):
            SetFunction(size, lambda S: 0.0)

    @pytest.mark.parametrize("size", [np.int64(3), np.uint8(3)], ids=["int64", "uint8"])
    def test_numpy_integer_ground_size_accepted(self, size):
        # kept as a Python int, so 1 << ground_size cannot wrap
        fn = SetFunction(size, lambda S: float(len(S)))
        assert type(fn.ground_size) is int and fn.ground_size == 3
        assert fn.value({0, 2}) == 2.0 and fn.values([7]).tolist() == [3.0]

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            SetFunction(2, lambda S: 1.0)

    @pytest.mark.parametrize("empty", [math.nan, math.inf])
    def test_non_finite_empty_rejected(self, empty):
        # abs(nan) > TOL is false, so a NaN f(empty) used to pass
        with pytest.raises(ValueError, match="normalized"):
            SetFunction(2, lambda S: empty)

    @pytest.mark.parametrize("scale", [1.0, 1e-9, 1e-12])
    def test_own_empty_value_kept(self, scale):
        # f(empty) = 5e-10 passes the normalization check; the memo must keep
        # it, or the first marginal reads 5.01e-10 instead of 1e-12
        fn = SetFunction(2, lambda S: scale * (5e-10 + 1e-12 * len(S)))
        assert fn.value(()) == scale * 5e-10
        assert fn.marginal(0, ()) == pytest.approx(1e-12 * scale, rel=1e-6)
        assert ((fn.values(fn.marginal_keys(0)) - fn.value(())).tolist()
                == [fn.marginal(0, ()), fn.marginal(1, ())])


class TestCoversRelation:
    def test_built_on_first_read_and_kept(self):
        calls = []

        def evaluate(S):
            return float(len(S))

        def covers():
            calls.append(1)
            return [[1, 1], [1, 1]]

        evaluate.covers = covers
        fn = SetFunction(2, evaluate)
        assert calls == []
        assert fn.covers.dtype == bool and fn.covers.all()
        assert calls == [1]

    def test_undeclared_is_none(self):
        assert modular_fn((1, 2)).covers is None

    def test_wrong_shape_rejected(self):
        def evaluate(S):
            return float(len(S))

        evaluate.covers = lambda: np.ones((2, 3), dtype=bool)
        with pytest.raises(ValueError, match="shape"):
            SetFunction(2, evaluate).covers


class TestBuildCut:
    def test_worked_example_cut(self, facet_pair):
        f1, _ = facet_pair
        cut = build_cut(f1, {0, 1}, 1.0, 0)
        assert cut.constant == pytest.approx(2.0, abs=1e-12)
        assert cut.coefficients == pytest.approx((0.0, 0.0, 2.0, 3.0), abs=1e-12)
        assert cut.generating_set == frozenset({0, 1})

    def test_empty_generating_set(self):
        fn = modular_fn((1, 2, 3))
        cut = build_cut(fn, (), 1.0, 0)
        assert cut.constant == 0.0
        assert cut.coefficients == (1.0, 2.0, 3.0)

    def test_scaled_modular_cut(self):
        # constant (f({0}) - rho_0(V-0))/2 = (1 - 1)/2 = 0
        fn = modular_fn((1, 2))
        cut = build_cut(fn, {0}, 2.0, 0)
        assert cut.constant == pytest.approx(0.0, abs=1e-12)
        assert cut.coefficients == pytest.approx((0.5, 1.0), abs=1e-12)

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            build_cut(modular_fn((1,)), (), 0.0, 0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_alpha_must_be_finite(self, alpha):
        # NaN used to give an all-NaN cut, inf an all-zero one
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            build_cut(modular_fn((1, 2)), {0}, alpha, 0)

    @pytest.mark.parametrize("subset", [{-1}, {0, 2}])
    def test_generating_set_outside_ground_set_rejected(self, subset):
        with pytest.raises(ValueError, match="generating set not within ground set"):
            build_cut(modular_fn((1, 2)), subset, 1.0, 0)

    def test_tight_at_generating_set(self, facet_pair):
        f1, f2 = facet_pair
        for fn in (f1, f2):
            for X in all_subsets(4):
                cut = build_cut(fn, X, 1.5, 0)
                lhs = cut.constant + sum(cut.coefficients[j] for j in X)
                assert lhs == pytest.approx(fn.value(X) / 1.5, abs=1e-9)

    def test_valid_everywhere_with_nonneg_coeffs(self):
        rng = Random(3)
        for _ in range(15):
            n = rng.randint(2, 6)
            fn = random_coverage(rng, n)
            X = frozenset(j for j in range(n) if rng.random() < 0.4)
            cut = build_cut(fn, X, 1.0, 0)
            assert all(c >= -1e-12 for c in cut.coefficients)
            assert cut_is_valid(cut, fn, 1.0)


class TestBuildCuts:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 9), st.integers(0, 2**32 - 1),
           st.sampled_from(("family", "mixed", "plain")), st.data())
    def test_equals_per_function_build_cut(self, m, n, seed, kind, data):
        # one read for every cut, on a cold or a warm memo and with a
        # function listed twice: each cut equals build_cut's with ==, and
        # each memo the one that per-function reads leave.  Plain functions
        # hold random floats, so the constant's summation order shows.
        def functions():
            family = CoverageFamily(m, n, seed).functions()
            rng = np.random.default_rng(seed)
            plain = []
            for i in range(m):
                table = np.concatenate(([0.0], 10 * rng.random((1 << n) - 1)))
                plain.append(batched(table_fn(table), []) if i % 2 else table_fn(table))
            mixed = [fam if i % 2 else own for i, (fam, own) in enumerate(zip(family, plain))]
            return {"family": family, "mixed": mixed, "plain": plain}[kind]

        fns, alone = functions(), functions()
        warm = data.draw(st.lists(st.tuples(st.integers(0, m - 1),
                                            st.integers(0, (1 << n) - 1)), max_size=12))
        for side in (fns, alone):
            for i, key in warm:
                side[i].values([key])
        cuts = data.draw(st.lists(st.tuples(st.integers(0, m - 1), st.sets(st.integers(0, n - 1)),
                                            st.floats(1e-6, 1e9)), min_size=1, max_size=6))
        got = build_cuts([fns[i] for i, _, _ in cuts], [gen for _, gen, _ in cuts],
                         [alpha for _, _, alpha in cuts], [i for i, _, _ in cuts])
        want = [build_cut(alone[i], gen, alpha, i) for i, gen, alpha in cuts]
        assert got == want
        assert [fn._cache for fn in fns] == [fn._cache for fn in alone]

    def test_one_entry_per_function_refused_otherwise(self):
        fn = modular_fn((1, 2))
        with pytest.raises(ValueError, match="need one generating set, alpha and scenario index"):
            build_cuts([fn, fn], [{0}, {1}], [1.0], [0, 1])
        assert build_cuts([], [], [], []) == []


class TestCutMemo:
    """Each oracle memoizes its cuts by generating set, alpha and scenario
    index; a memoized cut is the object built before and reads nothing."""

    @pytest.fixture
    def reads(self, monkeypatch):
        made = []

        def counted(fns, keys):
            made.append(len(fns))
            return values_in(fns, keys)

        monkeypatch.setattr(robustmax.core, "values_in", counted)
        return made

    def test_repeat_returns_the_same_objects_and_reads_nothing(self, reads):
        fns = CoverageFamily(3, 7, 1).functions()
        args = ([fns[0], fns[2], fns[0]], [{1, 4}, (), {2}], [1.0, 2.5, 1.0], [0, 2, 0])
        first = build_cuts(*args)
        assert reads == [3]
        again = build_cuts(*args)
        assert reads == [3]
        assert all(a is b for a, b in zip(first, again))
        # a cut of the first call asked for with others: only the others are read
        mixed = build_cuts([fns[1], fns[0]], [{3}, {1, 4}], [1.0, 1.0], [1, 0])
        assert reads == [3, 1] and mixed[1] is first[0]

    def test_asked_for_twice_in_one_call_is_one_object(self):
        fn = modular_fn((1, 2, 3))
        a, b = build_cuts([fn, fn], [{0, 2}, [2, 0]], [1.0, 1.0], [0, 0])
        assert a is b

    @pytest.mark.parametrize("alpha, index", [(2.0, 0), (1.0, 1), (3.0, 4)])
    def test_new_alpha_or_index_builds_afresh(self, alpha, index):
        table = np.concatenate(([0.0], 10 * np.random.default_rng(3).random(63)))
        fn, cold = table_fn(table), table_fn(table)
        memoized = build_cut(fn, {0, 3, 5}, 1.0, 0)
        cut = build_cut(fn, {0, 3, 5}, alpha, index)
        assert cut is not memoized
        assert cut == build_cut(cold, {0, 3, 5}, alpha, index)
        assert cut.scenario_index == index

    def test_numpy_numbers_hit_the_python_entry(self, reads):
        fn = modular_fn((1, 2, 3, 4))
        cut = build_cut(fn, {1, 3}, 2, 3)
        for alpha, index in [(np.float64(2.0), np.int64(3)), (np.int64(2), np.int32(3)),
                             (2.0, np.uint8(3))]:
            got = build_cut(fn, [np.int64(3), np.int64(1)], alpha, index)
            assert got is cut
        assert reads == [1]
        assert type(cut.scenario_index) is int and type(cut.constant) is float
        # built from numpy numbers first, the fields are Python's all the same
        other = modular_fn((1, 2, 3, 4))
        fresh = build_cut(other, {1, 3}, np.float32(2.0), np.int64(3))
        assert type(fresh.scenario_index) is int and type(fresh.constant) is float
        assert fresh == cut and build_cut(other, {1, 3}, 2.0, 3) is fresh

    def test_index_must_be_an_integer(self):
        with pytest.raises(TypeError):
            build_cut(modular_fn((1, 2)), {0}, 1.0, 0.0)

    def test_equal_sets_in_another_order_are_one_cut(self, reads):
        # 0, 8 and 16 share a hash slot, so frozensets of them iterate in
        # insertion order; the marginals 1, 1e16 and -1e16 sum left to right
        # to 0 in one order and to 1 in the other, and exactly to 1 in both
        marginal = {0: 1.0, 8: 1e16, 16: -1e16}

        def evaluate(S):
            left = set(range(17)).difference(S)
            return -marginal.get(left.pop(), 0.0) if len(left) == 1 else 0.0

        one, other = frozenset((0, 8, 16)), frozenset((16, 8, 0))
        assert one == other and tuple(one) != tuple(other)
        fn = SetFunction(17, evaluate)
        cut = build_cut(fn, one, 1.0, 0)
        assert build_cut(fn, other, 1.0, 0) is cut and reads == [1]
        assert cut.constant == -1.0
        for gen in (one, other):  # a fresh oracle's build, in either order
            assert build_cut(SetFunction(17, evaluate), gen, 1.0, 0).constant == -1.0

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from(range(0, 64, 8)), min_size=1, max_size=8, unique=True),
           st.data(), st.sampled_from((1.0, 2.5, 1e-3)))
    def test_colliding_elements_in_any_order_are_one_cut(self, elements, data, alpha):
        # multiples of 8 share hash slots, so each drawn insertion order can
        # iterate in its own order; full-set marginals far apart in
        # magnitude make a left-to-right sum depend on that order
        weight = dict(zip(elements, data.draw(st.lists(
            st.sampled_from((1.0, -1.0, 1e16, -1e16, 3.25, 1e-3)),
            min_size=len(elements), max_size=len(elements)))))

        def evaluate(S):
            left = set(range(64)).difference(S)
            if len(left) == 1:
                return -weight.get(left.pop(), 0.0)
            return math.fsum(weight.get(j, 0.0) for j in S)

        orders = data.draw(st.lists(st.permutations(elements), min_size=1, max_size=4))
        fn = SetFunction(64, evaluate)
        cuts = [build_cut(fn, frozenset(order), alpha, 0) for order in orders]
        assert all(cut is cuts[0] for cut in cuts)
        constant, coefficients = scalar_build_cut(SetFunction(64, evaluate), elements, alpha)
        assert cuts[0].constant == constant and cuts[0].coefficients == coefficients

    def test_two_element_set_in_another_order_is_the_same_cut(self, reads):
        # 3 and 11 share a hash slot, so frozensets of them iterate in
        # insertion order; the second order is served the first order's cut
        one, other = frozenset((3, 11)), frozenset((11, 3))
        assert one == other and tuple(one) != tuple(other)
        table = np.concatenate(([0.0], np.random.default_rng(5).random((1 << 12) - 1)))
        fn = table_fn(table)
        cut = build_cut(fn, one, 1.5, 2)
        assert reads == [1]
        assert build_cut(fn, other, 1.5, 2) is cut
        assert reads == [1]
        assert cut == build_cut(table_fn(table), other, 1.5, 2)  # a fresh oracle's read
        # so is a set of three
        three, shuffled = frozenset((0, 8, 4)), frozenset((4, 8, 0))
        assert tuple(three) != tuple(shuffled)
        assert build_cut(fn, three, 1.5, 2) is build_cut(fn, shuffled, 1.5, 2)
        assert reads == [1, 1, 1]  # the fresh oracle's read, then the set of three's

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 7), st.integers(0, 2**32 - 1), st.data())
    def test_value_memo_is_the_one_rebuilding_leaves(self, m, n, seed, data):
        # a sequence of calls, with repeats, on shared oracles and on oracles
        # whose cut memo is emptied before each call (every cut rebuilt, as
        # with no cut memo): the same cuts, and the same value memos
        fns, rebuilt = (CoverageFamily(m, n, seed).functions() for _ in range(2))
        cut = st.tuples(st.integers(0, m - 1), st.sets(st.integers(0, n - 1), max_size=3),
                        st.sampled_from((1.0, 2.5)), st.integers(0, 2))
        calls = data.draw(st.lists(st.lists(cut, min_size=1, max_size=4), min_size=1,
                                   max_size=6))
        for call in calls:
            for fn in rebuilt:
                fn._cuts.clear()
            sides = [build_cuts([side[i] for i, _, _, _ in call], [gen for _, gen, _, _ in call],
                                [alpha for _, _, alpha, _ in call], [k for _, _, _, k in call])
                     for side in (fns, rebuilt)]
            assert sides[0] == sides[1]
            assert [fn._cache for fn in fns] == [fn._cache for fn in rebuilt]


class TestEmptySetCuts:
    def test_singleton_rows(self, warmstart_triple):
        cuts = empty_set_cuts(warmstart_triple, [1.0, 1.0, 1.0])
        assert [c.coefficients for c in cuts] == [
            (2.0, 2.0, 3.0), (1.0, 3.0, 4.0), (3.0, 3.0, 1.0)]
        assert all(c.constant == 0.0 for c in cuts)
        assert [c.scenario_index for c in cuts] == [0, 1, 2]

    def test_single_modular(self):
        (cut,) = empty_set_cuts([modular_fn((1, 2))], [1.0])
        assert cut.coefficients == (1.0, 2.0)

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            empty_set_cuts([], [])

    def test_non_finite_alpha_rejected(self, warmstart_triple):
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            empty_set_cuts(warmstart_triple[:1], [math.nan])

    def test_one_alpha_per_function(self, warmstart_triple):
        with pytest.raises(ValueError, match="need one alpha per set function"):
            empty_set_cuts(warmstart_triple, [1.0, 1.0])

    def test_water_oracle_singletons(self, figure_network):
        from robustmax import reduction_matrix
        net, sc = figure_network
        fn = scenario_oracle(net, sc)
        (cut,) = empty_set_cuts([fn], [1.0])
        saved = reduction_matrix(net, [sc])[0]
        probs = net.source_probabilities
        for v in range(4):
            expect = sum(p * saved[v, jj] for jj, p in enumerate(probs))
            assert cut.coefficients[v] == pytest.approx(expect, abs=1e-12)


class TestDominates:
    def test_worked_redundancy(self):
        a = SubmodularCut(3.0, (0.0, 0.0, 2.0, 3.0), 0)
        b = SubmodularCut(5.0, (0.0, 0.0, 3.0, 5.0), 1)
        c = SubmodularCut(2.0, (0.0, 0.0, 3.0, 4.0), 2)
        assert dominates(a, b)
        assert not dominates(a, c) and not dominates(c, a)

    def test_reflexive(self):
        a = SubmodularCut(1.0, (0.5, 2.0), 0)
        assert dominates(a, a)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dominates(SubmodularCut(0.0, (1.0,), 0), SubmodularCut(0.0, (1.0, 2.0), 0))

    def test_partial_order_on_random_triples(self):
        rng = Random(11)
        cuts = [SubmodularCut(rng.randint(0, 3) * 1.0,
                              tuple(float(rng.randint(0, 3)) for _ in range(3)), 0)
                for _ in range(40)]
        for _ in range(300):
            a, b, c = rng.choice(cuts), rng.choice(cuts), rng.choice(cuts)
            assert dominates(a, a)
            if dominates(a, b) and dominates(b, a):
                assert a.constant == pytest.approx(b.constant, abs=1e-9)
                assert a.coefficients == pytest.approx(b.coefficients, abs=1e-9)
            if dominates(a, b) and dominates(b, c):
                assert dominates(a, c)


class TestFacetCheck:
    def test_worked_example_is_facet(self, facet_pair):
        f1, f2 = facet_pair
        diag = facet_check([f1, f2], [1.0, 1.0], {0, 1}, 0)
        assert diag.cond_i and diag.cond_ii
        assert diag.witnesses == {0: 2, 1: 3}
        # independent confirmation via the affine rank of the tight points
        cut = build_cut(f1, {0, 1}, 1.0, 0)
        assert tight_face_rank([f1, f2], [1.0, 1.0], cut) == 4

    def test_empty_set_vacuous(self, warmstart_triple):
        diag = facet_check(warmstart_triple, [1.0] * 3, frozenset(), 0)
        assert diag.cond_i
        assert diag.witnesses == {}

    def test_wrong_scenario_index_reports_false(self, facet_pair):
        f1, f2 = facet_pair
        diag = facet_check([f1, f2], [1.0, 1.0], {0, 1}, 1)
        assert not diag.cond_ii

    def test_positive_verdicts_match_affine_rank(self):
        rng = Random(23)
        positives = 0
        for trial in range(120):
            n = 5
            if trial % 2:
                fns = [random_coverage(rng, n, duplicates=True)]
            else:
                fns = [random_coverage(rng, n, duplicates=True),
                       random_coverage(rng, n)]
            alphas = [1.0] * len(fns)
            X = frozenset(rng.sample(range(n), rng.randint(0, 3)))
            i = rng.randrange(len(fns))
            diag = facet_check(fns, alphas, X, i)
            if diag.cond_i and diag.cond_ii:
                positives += 1
                cut = build_cut(fns[i], X, alphas[i], i)
                assert tight_face_rank(fns, alphas, cut) == n
        assert positives >= 5  # the implication must actually be exercised

    def test_verdicts_do_not_depend_on_scale(self):
        # with an absolute TOL, tiny oracles attained every minimum and had
        # zero pair marginals everywhere
        rng = Random(37)
        flips = 0
        for _ in range(60):
            n = 5
            fns = [random_coverage(rng, n, duplicates=True) for _ in range(2)]
            X = frozenset(rng.sample(range(n), rng.randint(1, 3)))
            i = rng.randrange(2)
            verdicts = set()
            for scale in (1.0, 1e-12, 1e9):
                scaled = [SetFunction(n, lambda S, fn=fn: scale * fn.value(S)) for fn in fns]
                diag = facet_check(scaled, [1.0, 1.0], X, i)
                verdicts.add((diag.cond_i, diag.cond_ii, tuple(diag.witnesses.items())))
            assert len(verdicts) == 1
            flips += not (diag.cond_i and diag.cond_ii)
        assert flips > 10  # negative verdicts, which a tiny scale used to flip


class TestCheckSubmodular:
    def test_modular_passes(self):
        assert check_submodular(modular_fn((1, 2, 3)))

    def test_water_oracle_passes(self, figure_network):
        net, sc = figure_network
        assert check_submodular(scenario_oracle(net, sc))

    def test_supermodular_fails(self):
        fn = SetFunction(3, lambda S: float(len(S) ** 2))
        assert not check_submodular(fn)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("limit", [12, 0], ids=["exhaustive", "sampled"])
    def test_non_finite_values_fail(self, bad, limit):
        # every comparison with a NaN value or slack is false, so an oracle
        # that is NaN on every nonempty set used to pass both checks
        everywhere = SetFunction(5, lambda S: bad if S else 0.0)
        assert not check_submodular(everywhere, exhaustive_limit=limit, samples=200)
        at_one_set = SetFunction(5, lambda S: bad if S == {1, 3} else float(len(S)))
        assert not check_submodular(at_one_set, exhaustive_limit=limit, samples=2000)

    def test_sampled_mode_detects_supermodular(self):
        fn = SetFunction(16, lambda S: float(len(S) ** 2))
        assert not check_submodular(fn, exhaustive_limit=4, samples=4000, seed=1)

    def test_differences_of_exactly_tol_pass(self):
        # The tolerance is TOL times the largest |f|, here the scale.  A
        # marginal of exactly minus that passes and of twice it fails; a
        # marginal that grows by half of it passes and by twice it fails
        # (1 + TOL has no exact binary form, so growth has no exact case).
        cases = (([0.0, -TOL, 1.0, 1.0], True), ([0.0, -2 * TOL, 1.0, 1.0], False),
                 ([0.0, 0.0, 1.0, 1.0 + 0.5 * TOL], True),
                 ([0.0, 0.0, 1.0, 1.0 + 2 * TOL], False))
        for scale in (1.0, 1e-9, 1e-12, 1e8):
            for table, verdict in cases:
                scaled = table_fn([scale * v for v in table])
                assert check_submodular(scaled) is verdict, (scale, table)
                assert scalar_check_submodular(scaled) is verdict, (scale, table)

    @pytest.mark.parametrize("scale", [1.0, 1e-9, 1e-12])
    def test_non_monotone_fails_at_every_scale(self, scale):
        # f = 1 on nonempty sets minus 0.5 on the full set; an absolute TOL
        # let it pass at scales 1e-9 and 1e-12
        fn = SetFunction(3, lambda S: scale * ((1.0 if S else 0.0) - (0.5 if len(S) == 3 else 0.0)))
        assert not check_submodular(fn)
        assert not scalar_check_submodular(fn)

    @settings(max_examples=150, deadline=None)
    @given(set_function_tables(), st.integers(1, 300), st.integers(0, 2**16))
    def test_sampled_verdict_matches_scalar_reference(self, case, samples, seed):
        table, _ = case
        assume(len(table) >= 4)  # sampling draws two elements outside a set
        fn = table_fn(table)
        verdict = check_submodular(fn, exhaustive_limit=0, samples=samples, seed=seed)
        assert verdict is scalar_sampled_check_submodular(fn, samples, seed)

    def test_sampled_verdicts_on_lawful_and_violating(self):
        lawful = random_coverage(Random(3), 10)
        violating = SetFunction(10, lambda S: float(len(S) ** 2))
        for fn, verdict in ((lawful, True), (violating, False)):
            assert check_submodular(fn, exhaustive_limit=0, samples=500, seed=2) is verdict
            assert scalar_sampled_check_submodular(fn, 500, 2) is verdict

    @pytest.mark.parametrize("samples", [0, -3])
    def test_sampled_without_samples_refused(self, samples):
        # nothing drawn used to mean nothing violated, so this passed
        robustmax.core._sample_rows.cache_clear()
        fn = SetFunction(6, lambda S: float(len(S) ** 2))
        with pytest.raises(ValueError, match="samples"):
            check_submodular(fn, exhaustive_limit=0, samples=samples)
        assert robustmax.core._sample_rows.cache_info().currsize == 0

    def test_one_element_checked_exhaustively(self):
        # one element has no (X, j, k) triple to draw; sampling raised
        # "empty range for randrange()"
        assert check_submodular(SetFunction(1, lambda S: float(len(S))), exhaustive_limit=0)
        assert not check_submodular(SetFunction(1, lambda S: -1.0 if S else 0.0),
                                    exhaustive_limit=0)

    def test_sample_keys_match_inline_draws(self):
        n, samples, seed = 36, 200, 7
        rng = Random(seed)
        keys = []
        for _ in range(samples):
            size = rng.randint(0, n - 2)
            base = frozenset(rng.sample(range(n), size))
            j, k = rng.sample([v for v in range(n) if v not in base], 2)
            key = sum(1 << v for v in base)
            keys += (key, key | 1 << j, key | 1 << k, key | 1 << j | 1 << k)
        drawn = robustmax.core._sample_keys(n, samples, seed)
        assert isinstance(drawn, tuple) and drawn == tuple(keys)

    def test_cached_keys_follow_each_triple(self):
        # a violation planted on one triple of elements is found by some
        # (n, samples, seed) and missed by others, so a verdict read from
        # another triple's keys would differ from the reference
        oracles = {}
        for n in (8, 9):
            bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
            rng = np.random.default_rng(n)
            covers = rng.random((n, 6)) < 0.4
            lawful = ((bits @ covers) > 0) @ rng.integers(1, 6, 6).astype(float)
            oracles[n] = (table_fn(lawful), table_fn(lawful + bits[:, :3].all(axis=1)))
        triples = [(8, 20, 1), (8, 20, 2), (9, 40, 2), (9, 20, 1), (8, 40, 4)]
        planted = set()
        for _ in range(2):
            for n, samples, seed in triples:
                for fn in oracles[n]:
                    verdict = check_submodular(fn, exhaustive_limit=0,
                                               samples=samples, seed=seed)
                    assert verdict is scalar_sampled_check_submodular(fn, samples, seed)
                planted.add(verdict)
        assert planted == {True, False}

    def test_desk_oracles_draw_once(self, monkeypatch):
        seeds = []

        class CountingRandom(Random):
            def __init__(self, seed):
                seeds.append(seed)
                super().__init__(seed)

        monkeypatch.setattr(robustmax.core, "Random", CountingRandom)
        robustmax.core._sample_rows.cache_clear()
        desk = generate_instance(n=36, edge_factor=41 / 36, m=50, j_count=12,
                                 budget=30, seed=2)
        assert all(check_submodular(fn, exhaustive_limit=12, samples=200, seed=7)
                   for fn in desk.build_oracles())
        assert seeds == [7]

    def test_desk_oracles_decode_once(self, monkeypatch):
        decodes = []

        def counting(parts, n):
            decodes.append(n)
            return decode(parts, n)

        decode = robustmax.core._members
        monkeypatch.setattr(robustmax.core, "_members", counting)
        robustmax.core._sample_rows.cache_clear()
        desk = generate_instance(n=36, edge_factor=41 / 36, m=50, j_count=12,
                                 budget=30, seed=2)
        assert all(check_submodular(fn, exhaustive_limit=12, samples=200, seed=7)
                   for fn in desk.build_oracles())
        assert decodes == [36]

    def test_kept_rows_are_read_only(self):
        members, filled = robustmax.core._sample_rows(36, 200, 7)
        assert members.shape == (filled.sum(), 36) and len(filled) == 4 * 200 + 1
        for kept in (members, filled):
            with pytest.raises(ValueError, match="read-only"):
                kept[0] = True
            with pytest.raises(ValueError, match="read-only"):
                kept.fill(True)
        # a kernel that writes into its rows cannot change what a later check reads
        def evaluate(S):
            return float(min(len(S), 3))

        evaluate.family = (Kernel(lambda scenario_of_row, rows: rows.fill(False)), 0)
        with pytest.raises(ValueError, match="read-only"):
            check_submodular(SetFunction(36, evaluate), samples=200, seed=7)
        assert members.any(axis=1).all()

    @pytest.mark.parametrize("kind", ["family", "plain"])
    @pytest.mark.parametrize("n, limit", [(1, 12), (7, 12), (12, 12), (7, 0), (36, 12)],
                             ids=["exhaustive-1", "exhaustive-7", "exhaustive-12",
                                  "sampled-7", "sampled-36"])
    def test_kernel_reads_each_row_once_past_the_memo(self, monkeypatch, kind, n, limit):
        # one kernel call per check, on every nonempty mask when exhaustive,
        # or on the nonempty sample rows and then N when sampled; the memo
        # keeps f(empty) alone, and every value equals eval_fn with ==
        calls = []

        def recording(rows):
            def kernel(*args):
                values = rows(*args)
                calls.append((args[-1].copy(), np.asarray(values, dtype=float).tolist()))
                return values
            return kernel

        if kind == "family":
            family = CoverageFamily(1, n, n)
            fn = family.functions()[0]
            family.rows = recording(family.rows)
        else:
            fn = SetFunction(n, lambda S: float(min(len(S), 3)))
            monkeypatch.setattr(SetFunction, "rows", recording(SetFunction.rows))
        assert check_submodular(fn, exhaustive_limit=limit, samples=300, seed=5)
        if n <= limit or n < 2:
            expected = list(range(1, 1 << n))
        else:
            keys = robustmax.core._sample_keys(n, 300, 5) + ((1 << n) - 1,)
            expected = [key for key in keys if key]
        (members, values), = calls
        assert [sum(1 << j for j in np.flatnonzero(row).tolist()) for row in members] == expected
        assert values == [fn._eval(frozenset(np.flatnonzero(row).tolist())) for row in members]
        assert fn._cache == {0: fn._eval(frozenset())}

    def test_warm_memo_is_not_consulted(self):
        # a plain oracle's eval_fn is called once per nonempty set, whatever
        # its memo holds, and the memo is left as it was
        calls = []
        fn = SetFunction(5, lambda S: calls.append(S) or float(min(len(S), 3)))
        fn.values(range(1 << 5))
        memo = dict(fn._cache)
        calls.clear()
        assert check_submodular(fn)
        assert len(calls) == (1 << 5) - 1 and fn._cache == memo

    @pytest.mark.parametrize("n", [12, 36, 105, 130])
    def test_table_equals_keyed_values(self, monkeypatch, n):
        # n=12 reads the lattice through the structural form's doubling
        # read, n=36 the samples through the ranking kernel, n=105 and 130
        # the samples through the gather: each check makes one of the two
        # reads, and its table equals a fresh oracle's keyed values with ==
        tables = []

        def recording(read):
            def record(*args):
                tables.append(read(*args).copy())
                return tables[-1].copy()
            return record

        monkeypatch.setattr(robustmax.core, "_kernel_values",
                            recording(robustmax.core._kernel_values))
        monkeypatch.setattr(robustmax.water._ScenarioStack, "lattice",
                            recording(robustmax.water._ScenarioStack.lattice))
        instance = generate_instance(n=n, edge_factor=1.2, m=2, j_count=max(3, n // 3),
                                     budget=n, seed=1)
        if n <= 12:
            keys = range(1 << n)
        else:
            keys = robustmax.core._sample_keys(n, 200, 3) + ((1 << n) - 1,)
        assert all(check_submodular(fn, samples=200, seed=3) for fn in instance.build_oracles())
        fresh = instance.build_oracles()
        assert [table.tolist() for table in tables] == [fn.values(keys).tolist() for fn in fresh]

    @pytest.mark.parametrize("violation", [None, *range(11), "monotone"],
                             ids=["lawful", *map("bit-{}".format, range(11)), "monotone-last"])
    def test_every_bit_at_twelve(self, violation):
        # f = sqrt of a weighted size, strictly submodular, passes.  A bonus
        # on the pair {b, b + 1} breaks diminishing returns at that pair
        # alone, which both of its columns read at compressed bit b; f(N)
        # lowered by 1 breaks monotonicity at the last mask alone
        n = 12
        bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
        table = np.sqrt(bits @ (1.0 + np.arange(n) / n))
        if violation == "monotone":
            table[-1] -= 1.0
        elif violation is not None:
            table += 10.0 * (bits[:, violation] & bits[:, violation + 1])
        assert check_submodular(table_fn(table)) is (violation is None)

    @pytest.mark.parametrize("name", ["exhaustive_limit", "samples"])
    @pytest.mark.parametrize("count", [True, False, 2.5, 12.0, np.float64(200), "12", None])
    def test_non_integer_counts_refused(self, name, count):
        # samples=True ran one sample and exhaustive_limit=True enumerated
        # n <= 1 only; samples=2.5 raised TypeError while drawing
        fn = SetFunction(6, lambda S: float(min(len(S), 3)))
        for limit in (12, 0):
            with pytest.raises(ValueError, match=name):
                check_submodular(fn, **{"exhaustive_limit": limit, "samples": 50, name: count})
        assert check_submodular(fn, exhaustive_limit=np.int64(3), samples=np.int32(50))
        assert check_submodular(fn, exhaustive_limit=np.uint8(6))

    @settings(max_examples=150, deadline=None)
    @given(set_function_tables())
    def test_verdict_matches_scalar_reference(self, case):
        table, expected = case
        verdict = check_submodular(table_fn(table))
        assert verdict == scalar_check_submodular(table_fn(table))
        if expected is not None:
            assert verdict == expected


class TestBatchReads:
    @settings(max_examples=100, deadline=None)
    @given(set_function_tables(), st.data())
    def test_marginals_match_scalar(self, case, data):
        fn = table_fn(case[0])
        n = fn.ground_size
        S = data.draw(st.sets(st.integers(0, n - 1)))
        marginals = fn.values(fn.marginal_keys(fn.key(S))) - fn.value(S)
        assert marginals.tolist() == [fn.marginal(j, S) for j in range(n)]

    @settings(max_examples=100, deadline=None)
    @given(set_function_tables(), st.data())
    def test_values_match_per_key_reads(self, case, data):
        # hits, misses and duplicates in one call: the same array and the
        # same memo as reading each key alone
        table = case[0]
        keys_of = st.lists(st.integers(0, len(table) - 1), max_size=40)
        warm, keys = data.draw(keys_of), data.draw(keys_of)
        calls = []
        batch_fn, scalar_fn = batched(table_fn(table), calls), table_fn(table)
        for fn in (batch_fn, scalar_fn):
            fn.values(warm)
        calls.clear()
        got = batch_fn.values(keys)
        assert got.tolist() == [scalar_fn.values([k]).item() for k in keys]
        assert batch_fn._cache == scalar_fn._cache
        # one call with each distinct miss once, and only for one or more
        missing = set(keys) - set(warm) - {0}
        assert len(calls) == (len(missing) > 0)
        if calls:
            assert len(calls[0]) == len(missing)

    def test_batch_beyond_64_elements(self):
        n = 72

        def evaluate(S):
            return float(len(S))

        evaluate.family = (Kernel(lambda scenario_of_row, members:
                                  members.sum(axis=1).astype(float)), 0)
        fn = SetFunction(n, evaluate)
        keys = [1 << 71 | 1 << 3, (1 << n) - 1, 1 << 64, 5]
        assert fn.values(keys).tolist() == [2.0, 72.0, 1.0, 2.0]
        with pytest.raises(ValueError):
            fn.values([1 << n, 3])
        with pytest.raises(ValueError):
            fn.values([-1, 3])

    @pytest.mark.parametrize("n", [1, 8, 63, 64, 65, 130])
    def test_members_decode_each_bit(self, n):
        # up to 64 elements the keys decode as one uint64 array, above it
        # key by key; both must agree with reading each bit on its own, the
        # parts' keys in turn
        keys = [0, 1, 1 << (n - 1), (1 << n) - 1]
        expected = [[bool(key >> j & 1) for j in range(n)] for key in keys]
        got = _members([keys[:1], keys[1:]], n)
        assert got.dtype == bool and got.tolist() == expected

    def test_values_by_bitmask(self):
        fn = modular_fn((1, 2, 4))
        assert fn.values([0, 5, 7, 5]).tolist() == [0.0, 5.0, 7.0, 5.0]
        with pytest.raises(ValueError):
            fn.values([8])

    @settings(max_examples=100, deadline=None)
    @given(set_function_tables(), st.data(), st.floats(1e-6, 1e9))
    def test_build_cut_matches_scalar_formula(self, case, data, alpha):
        fn = table_fn(case[0])
        gen = data.draw(st.sets(st.integers(0, fn.ground_size - 1)))
        cut = build_cut(fn, gen, alpha, 0)
        assert (cut.constant, cut.coefficients) == scalar_build_cut(fn, gen, alpha)

    @settings(max_examples=100, deadline=None)
    @given(set_function_tables(), st.data(), st.floats(1e-6, 1e9))
    def test_build_cut_reads_once_on_a_cold_oracle(self, case, data, alpha):
        # every value the cut needs in one read: at most one batch call, and
        # the memo the scalar formula leaves
        table = case[0]
        calls = []
        batch_fn, scalar_fn = batched(table_fn(table), calls), table_fn(table)
        gen = data.draw(st.sets(st.integers(0, batch_fn.ground_size - 1)))
        cut = build_cut(batch_fn, gen, alpha, 0)
        assert len(calls) <= 1
        assert (cut.constant, cut.coefficients) == scalar_build_cut(scalar_fn, gen, alpha)
        assert batch_fn._cache == scalar_fn._cache


class TestScalarReads:
    """A scalar miss is filled by a one-key :func:`values_in` read, the one
    routine that fills misses."""

    @pytest.fixture
    def reads(self, monkeypatch):
        made = []

        def counted(fns, keys):
            keys = [list(fn_keys) for fn_keys in keys]
            made.append(keys)
            return values_in(fns, keys)

        monkeypatch.setattr(robustmax.core, "values_in", counted)
        return made

    def test_cold_value_is_one_one_key_read(self, reads):
        family = CoverageFamily(1, 8, 3)
        (fn,) = family.functions()
        cold = fn.value({1, 3})
        assert reads == [[[0b1010]]]
        assert family.calls == [[0]]
        assert fn.value({1, 3}) == cold and fn.marginal(3, {1}) == cold - fn.value({1})
        assert reads == [[[0b1010]], [[0b10]]]  # the warm reads made none
        assert cold == fn._eval(frozenset({1, 3}))

    def test_plain_function_one_call_per_distinct_miss(self, reads):
        calls = []

        def evaluate(S):
            calls.append(S)
            return float(len(S))

        fn = SetFunction(6, evaluate)
        calls.clear()
        assert fn.values([3, 5, 3, 6, 0, 5]).tolist() == [2.0, 2.0, 2.0, 2.0, 0.0, 2.0]
        assert sorted(map(sorted, calls)) == [[0, 1], [0, 2], [1, 2]]
        assert fn.value({0, 1}) == 2.0 and fn.marginal(4, {0}) == 1.0
        assert len(calls) == 5
        assert reads[1:] == [[[0b10001]], [[0b1]]]  # one read per cold key; 0b11 is warm
        # listed twice in one read, a plain function evaluates 0b10000 once
        calls.clear()
        assert values_in([fn, fn], [[0b1000, 0b10000], [0b10000, 0b100000]]) == [[1.0, 1.0]] * 2
        assert sorted(map(sorted, calls)) == [[3], [4], [5]]

    def test_plain_eval_error_leaves_memo(self):
        # every miss is evaluated before the memo changes, so an eval_fn that
        # fails partway leaves the memo as it was
        def evaluate(S):
            if S == {1}:
                raise RuntimeError("eval_fn failed")
            return float(len(S))

        fn = SetFunction(4, evaluate)
        with pytest.raises(RuntimeError):
            fn.values([1, 2, 4])
        assert fn._cache == {0: 0.0}

    @pytest.mark.parametrize("bad", [-1, 1 << 6])
    def test_out_of_range_key_refused_before_any_call(self, bad):
        # a plain function's misses, and a family's, are all checked before
        # the first oracle call
        calls = []

        def evaluate(S):
            calls.append(S)
            return float(len(S))

        fn = SetFunction(6, evaluate)
        calls.clear()
        with pytest.raises(ValueError):
            fn.values([3, bad, 5])
        assert calls == []
        assert fn._cache == {0: 0.0}
        family = CoverageFamily(3, 6, 1)
        fns = family.functions()
        with pytest.raises(ValueError):
            values_in(fns, [[3], [5, bad], [6]])
        assert family.calls == []
        assert [fn._cache for fn in fns] == [{0: 0.0}] * 3


class TestNumpyIntegers:
    """Elements and bitmasks may be numpy integers: each read gives the
    value the same read with Python ints gives, on a cold or a warm memo,
    and the memo and the cut hold Python ints.  Under numpy 2, 1 << j for a
    numpy j past bit 63 is 0, and a numpy key has no bit_length."""

    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("n, pair", [(8, (3, 6)), (70, (3, 65))])
    def test_reads_equal_python_int_reads(self, n, pair, warm):
        inst = generate_instance(n=n, edge_factor=80 / 70, m=2, j_count=min(10, n),
                                 budget=20, seed=1)
        fn, ref = inst.build_oracles()[0], inst.build_oracles()[0]
        low, high = pair
        x = np.zeros(n, dtype=bool)
        x[list(pair)] = True

        def reads(f, numpy):
            support = np.flatnonzero(x) if numpy else [low, high]
            keys = np.arange(1, 6) if numpy else range(1, 6)
            j = np.int64(high) if numpy else high
            cut = build_cut(f, support, 1.0, 0)
            return (f.value(support), f.marginal(j, [low]), f.values(keys).tolist(),
                    (cut.constant, cut.coefficients, sorted(cut.generating_set)),
                    sorted(strengthen_generating_set(f, support, 2)), cut)

        if warm:
            fn.value([low])
            reads(fn, numpy=False)
        *got, cut = reads(fn, numpy=True)
        *want, _ = reads(ref, numpy=False)
        assert got == want
        assert fn._cache == ref._cache
        assert all(type(key) is int for key in fn._cache)
        assert all(type(j) is int for j in cut.generating_set)

    def test_float_element_refused(self):
        fn = modular_fn((1, 2, 4))
        for bad in ([1.0], np.array([1.0])):
            with pytest.raises(TypeError):
                fn.value(bad)
            with pytest.raises(TypeError):
                build_cut(fn, bad, 1.0, 0)

    def test_float_key_refused_on_a_cold_and_a_warm_memo(self):
        # hash(5.0) == hash(5), so a warm memo used to answer the float key
        fn = SetFunction(3, lambda S: float(len(S)))
        with pytest.raises(TypeError):
            fn.values([5.0])
        assert fn.values([5]).tolist() == [2.0]
        for bad in ([5.0], np.array([5.0]), [3, 5.0]):
            with pytest.raises(TypeError):
                fn.values(bad)
        with pytest.raises(TypeError):
            values_in([fn, fn], [[5], [5.0]])
        assert fn.values(np.array([5, 3], dtype=np.int64)).tolist() == [2.0, 2.0]
        assert all(type(key) is int for key in fn._cache)
