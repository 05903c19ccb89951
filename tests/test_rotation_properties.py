"""Property-based tests on the rotation and merge arithmetic.

These validate the pure renumbering mathematics that both engines rely
on, independent of any network machinery.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.merge import DIR_PRED, DIR_SUCC


def rotate(path, j):
    """Fig. 2's rotation: reverse the segment after position j (1-based)."""
    h = len(path)
    assert 1 <= j < h
    return path[:j] + path[j:][::-1]


def renumber(i, h, j):
    """The paper's index map: i -> h + j + 1 - i for j < i <= h."""
    return h + j + 1 - i if j < i <= h else i


class TestRotationArithmetic:
    @given(st.integers(4, 60), st.data())
    @settings(max_examples=100, deadline=None)
    def test_renumber_matches_segment_reversal(self, n, data):
        """The index formula and the list reversal agree everywhere."""
        path = list(range(100, 100 + n))
        j = data.draw(st.integers(1, n - 1))
        rotated = rotate(path, j)
        for new_pos, node in enumerate(rotated, start=1):
            old_pos = path.index(node) + 1
            assert renumber(old_pos, n, j) == new_pos

    @given(st.integers(4, 40), st.data())
    @settings(max_examples=60, deadline=None)
    def test_renumber_is_involution_on_segment(self, n, data):
        j = data.draw(st.integers(1, n - 1))
        for i in range(j + 1, n + 1):
            assert renumber(renumber(i, n, j), n, j) == i

    @given(st.integers(4, 40), st.data())
    @settings(max_examples=60, deadline=None)
    def test_rotation_preserves_node_set(self, n, data):
        path = list(range(n))
        j = data.draw(st.integers(1, n - 1))
        assert sorted(rotate(path, j)) == path

    @given(st.integers(4, 40), st.data())
    @settings(max_examples=60, deadline=None)
    def test_new_head_is_old_j_plus_one(self, n, data):
        path = list(range(n))
        j = data.draw(st.integers(1, n - 1))
        assert rotate(path, j)[-1] == path[j]  # old v_{j+1} (0-based index j)


def splice(a_cycle, b_cycle, v_pos, w_pos, direction):
    """DHC2's merge splice (mirrors fast_dhc2._merge_pair_vec and MergeMachine)."""
    s_a, s_b = len(a_cycle), len(b_cycle)
    if direction == DIR_SUCC:
        b_seq = [b_cycle[(w_pos - t) % s_b] for t in range(s_b)]
    else:
        b_seq = [b_cycle[(w_pos + t) % s_b] for t in range(s_b)]
    u_pos = (v_pos + 1) % s_a
    a_seq = a_cycle[u_pos:] + a_cycle[:u_pos]
    return b_seq + a_seq


class TestMergeArithmetic:
    @given(
        sa=st.integers(3, 30),
        sb=st.integers(3, 30),
        data=st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_splice_is_a_cyclic_ordering_of_the_union(self, sa, sb, data):
        a_cycle = [("a", i) for i in range(sa)]
        b_cycle = [("b", i) for i in range(sb)]
        v_pos = data.draw(st.integers(0, sa - 1))
        w_pos = data.draw(st.integers(0, sb - 1))
        direction = data.draw(st.sampled_from([DIR_SUCC, DIR_PRED]))
        merged = splice(a_cycle, b_cycle, v_pos, w_pos, direction)
        assert sorted(merged) == sorted(a_cycle + b_cycle)
        assert len(merged) == sa + sb

    @given(sa=st.integers(3, 20), sb=st.integers(3, 20), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_splice_edges_come_from_cycles_or_bridge(self, sa, sb, data):
        """Every edge of the merged order is a cycle edge of A or B, or
        one of the two bridge edges — exactly the paper's construction."""
        a_cycle = [("a", i) for i in range(sa)]
        b_cycle = [("b", i) for i in range(sb)]
        v_pos = data.draw(st.integers(0, sa - 1))
        w_pos = data.draw(st.integers(0, sb - 1))
        direction = data.draw(st.sampled_from([DIR_SUCC, DIR_PRED]))
        merged = splice(a_cycle, b_cycle, v_pos, w_pos, direction)

        def cyc_edges(cycle):
            return {frozenset((cycle[i], cycle[(i + 1) % len(cycle)]))
                    for i in range(len(cycle))}

        allowed = cyc_edges(a_cycle) | cyc_edges(b_cycle)
        v = a_cycle[v_pos]
        u = a_cycle[(v_pos + 1) % sa]
        w = b_cycle[w_pos]
        wp = b_cycle[(w_pos + (1 if direction == DIR_SUCC else -1)) % sb]
        allowed |= {frozenset((v, w)), frozenset((u, wp))}
        merged_edges = cyc_edges(merged)
        assert merged_edges <= allowed
        # The two removed cycle edges must NOT appear.
        assert frozenset((v, u)) not in merged_edges
        assert frozenset((w, wp)) not in merged_edges

    @given(sa=st.integers(3, 20), sb=st.integers(3, 20), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_splice_starts_at_w_and_ends_at_v(self, sa, sb, data):
        a_cycle = list(range(sa))
        b_cycle = list(range(100, 100 + sb))
        v_pos = data.draw(st.integers(0, sa - 1))
        w_pos = data.draw(st.integers(0, sb - 1))
        direction = data.draw(st.sampled_from([DIR_SUCC, DIR_PRED]))
        merged = splice(a_cycle, b_cycle, v_pos, w_pos, direction)
        assert merged[0] == b_cycle[w_pos]
        assert merged[-1] == a_cycle[v_pos]
