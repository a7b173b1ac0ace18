import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symtoc import FiniteSystem, StateSet
from symtoc.fts import segment_indices

from helpers import enabled_inputs, make_system, post, random_system, transitions


def chain():
    return make_system(3, 1, {(0, 0): [1], (1, 0): [2]})


def branching():
    # inputs: a=0, b=1
    return make_system(3, 2, {(0, 0): [1, 2], (0, 1): [1], (1, 0): [2]})


def test_post_reads_back_inserted_transitions():
    s = chain()
    assert post(s, 0, 0).tolist() == [1]
    assert post(s, 2, 0).tolist() == []
    b = branching()
    assert post(b, 0, 0).tolist() == [1, 2]


def test_enabled_inputs():
    s = chain()
    assert enabled_inputs(s, 2).tolist() == []
    b = branching()
    assert enabled_inputs(b, 0).tolist() == [0, 1]
    assert enabled_inputs(b, 1).tolist() == [0]


def test_post_enabled_round_trip_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        s = random_system(rng)
        for x in range(s.num_states):
            enabled = set(enabled_inputs(s, x).tolist())
            for u in range(s.num_inputs):
                assert (u in enabled) == (post(s, x, u).size > 0)


def test_from_csr_is_the_one_constructor():
    with pytest.raises(TypeError):
        FiniteSystem(3, 1, {(0, 0): [1]})
    s = FiniteSystem.from_csr(3, 1, [0, 1, 2, 2], [1, 2])
    assert s == chain() and s.pair_counts.tolist() == [1, 1, 0]


def test_construction_validates_indices():
    with pytest.raises(IndexError, match="successor out of range"):
        FiniteSystem.from_csr(2, 1, [0, 1, 1], [2])
    with pytest.raises(ValueError, match="wrong length"):
        FiniteSystem.from_csr(2, 1, [0, 1, 1, 1], [0])
    # checked before the int32 cast, which would wrap it to successor 1
    with pytest.raises(IndexError, match="successor out of range"):
        FiniteSystem.from_csr(3, 1, [0, 1, 1, 1], np.array([2**32 + 1]))


def pairs_matrix(s, pairs):
    """Bool (num_states, num_inputs) matrix that is True at the given pairs."""
    mat = np.zeros((s.num_states, s.num_inputs), dtype=bool)
    for x, u in pairs:
        mat[x, u] = True
    return mat


def test_restrict_identity():
    b = branching()
    assert b.restrict(np.ones((b.num_states, b.num_inputs), dtype=bool)) == b
    with pytest.raises(ValueError, match="wrong shape"):
        b.restrict({0: [1]})  # the matrix is the only form


def test_restrict_keeps_only_allowed():
    b = branching()
    r = b.restrict(pairs_matrix(b, [(0, 1)]))
    assert post(r, 0, 0).tolist() == []
    assert post(r, 0, 1).tolist() == [1]
    assert post(r, 1, 0).tolist() == []


def test_restrict_empty_blocks_everything():
    b = branching()
    r = b.restrict(pairs_matrix(b, []))
    assert r.num_transitions == 0


def test_restrict_never_adds_transitions():
    rng = np.random.default_rng(11)
    for _ in range(30):
        s = random_system(rng)
        mat = rng.random((s.num_states, s.num_inputs)) < 0.5
        r = s.restrict(mat)
        orig = {(x, u, tuple(t)) for x, u, t in transitions(s)}
        for x, u, t in transitions(r):
            assert (x, u, tuple(t)) in orig
            assert mat[x, u]


def test_stateset_algebra():
    a = StateSet(5, [0, 1])
    b = StateSet(5, [1, 3])
    assert (a | b).indices().tolist() == [0, 1, 3]
    assert (a & b).indices().tolist() == [1]
    assert (a - b).indices().tolist() == [0]
    assert (~a).indices().tolist() == [2, 3, 4]
    assert StateSet(5, [1]) <= a
    assert not (a <= b)
    assert len(a) == 2
    assert 0 in a and 2 not in a
    with pytest.raises(IndexError):
        StateSet(3, [3])


def test_structural_equality():
    assert chain() == chain()
    assert chain() != branching()


def test_transitions_iterates_in_pair_order():
    b = branching()
    listed = [(x, u) for x, u, _ in transitions(b)]
    assert listed == [(0, 0), (0, 1), (1, 0)]


def reference_reverse(s):
    """Reverse adjacency as first specified: int64 pair id of every entry, stably sorted by target."""
    pair_of_entry = np.repeat(np.arange(s.num_states * s.num_inputs, dtype=np.int64), s.pair_counts)
    rev_pairs = pair_of_entry[np.argsort(s._targets, kind="stable")]
    rev_offsets = np.zeros(s.num_states + 1, dtype=np.int64)
    np.cumsum(np.bincount(s._targets, minlength=s.num_states), out=rev_offsets[1:])
    return rev_offsets, rev_pairs


def assert_reverse_equal(got, want):
    assert got[0].dtype == np.int64 and got[1].dtype == np.int32
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["random", "none", "all"]))
def test_restrict_hands_down_the_fresh_reverse(seed, kind):
    rng = np.random.default_rng(seed)
    s = random_system(rng, density=float(rng.random()))
    shape = (s.num_states, s.num_inputs)
    allowed = {"random": rng.random(shape) < rng.random(),
               "none": np.zeros(shape, dtype=bool),
               "all": np.ones(shape, dtype=bool)}[kind]
    assert_reverse_equal(s.reverse(), reference_reverse(s))
    r = s.restrict(allowed)
    assert r._reverse_cache is not None  # derived from the parent's, not recomputed
    fresh = FiniteSystem.from_csr(r.num_states, r.num_inputs, r._offsets, r._targets)
    assert_reverse_equal(r.reverse(), fresh.reverse())
    assert_reverse_equal(r.reverse(), reference_reverse(fresh))


def test_restrict_without_parent_reverse_computes_its_own():
    b = branching()
    r = b.restrict(pairs_matrix(b, [(0, 0)]))
    assert r._reverse_cache is None
    assert_reverse_equal(r.reverse(), reference_reverse(r))


@pytest.mark.parametrize("n", [32768, 32769])
def test_reverse_sort_keys_on_both_sides_of_int32(n):
    # reverse() sorts the keys target*N*M + pair; with M=2 and state n-1 a
    # target, the largest key is 2^31-1 for n=32768 and past int32 for
    # n=32769, where an int32 key would wrap and scramble the pair ids
    rng = np.random.default_rng(n)
    trans = {(int(x), int(u)): rng.choice(n, size=3, replace=False).tolist() + [n - 1]
             for x, u in zip(rng.integers(0, n, 300), rng.integers(0, 2, 300))}
    s = make_system(n, 2, trans)
    assert_reverse_equal(s.reverse(), reference_reverse(s))


@pytest.mark.parametrize("n", [65536, 65537, 70000])
def test_reverse_sort_keys_on_both_sides_of_uint32(n):
    # with M=1 and state n-1 an enabled source and a target, the largest key
    # n*n - 1 is 2^32 - 1 for n=65536, the last that reverse() sorts as
    # uint32; past it the keys are int64, and both give int32 pair ids
    rng = np.random.default_rng(n)
    trans = {(int(x), 0): rng.choice(n, size=3, replace=False).tolist() + [n - 1]
             for x in rng.integers(0, n, 300)}
    trans[(n - 1, 0)] = [0, n - 1]
    s = make_system(n, 1, trans)
    assert_reverse_equal(s.reverse(), reference_reverse(s))


@settings(max_examples=100, deadline=None)
@given(ranges=st.lists(st.tuples(st.integers(0, 50), st.integers(0, 4)), max_size=8))
def test_segment_indices_concatenates_ranges(ranges):
    starts = np.array([a for a, _ in ranges], dtype=np.int64)
    counts = np.array([c for _, c in ranges], dtype=np.int64)
    want = [i for a, c in ranges for i in range(a, a + c)]
    assert segment_indices(starts, counts).tolist() == want
