"""``rng.draw_rows`` against the per-trial streams it stands in for.

Row i of ``draw_rows(seed, tag, trials, bounds)`` must be exactly the
``integers(b)`` draws of ``stream(seed, tag, trials[i])``, in order. The
array pass covers the common rows; Lemire rejections, trial ids of 2^32 or
more and bounds of 2^32 or more are drawn by ``stream``, and every call
checks its first array row against ``stream``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from univlb import rng
from univlb.rng import draw_rows, stream

# 2^31 + 1 rejects about half of its words; 2^32 - 1 only a zero word.
EDGE_BOUNDS = [1, 2, 2 ** 31 + 1, 2 ** 32 - 1]


def _stream_rows(seed, tag, trials, bounds):
    rows = []
    for trial in trials:
        g = stream(seed, tag, trial)
        rows.append([int(g.integers(b)) for b in bounds])
    return rows


@pytest.fixture
def stream_calls(monkeypatch):
    """The addresses ``draw_rows`` hands to ``rng.stream``."""
    calls = []
    real = rng.stream

    def counted(*address):
        calls.append(address)
        return real(*address)

    monkeypatch.setattr(rng, "stream", counted)
    return calls


@settings(max_examples=300, deadline=None)
@given(seed=st.one_of(st.integers(0, 2 ** 70), st.integers(2 ** 64, 2 ** 70)),
       tag=st.integers(1, 7),
       trials=st.lists(st.one_of(st.integers(0, 2 ** 16), st.sampled_from([0, 2 ** 32 - 1]),
                                 st.integers(2 ** 32, 2 ** 40)), max_size=8),
       bounds=st.lists(st.one_of(st.sampled_from(EDGE_BOUNDS), st.integers(1, 2 ** 32 - 1)),
                       max_size=12))
@example(seed=2 ** 70, tag=7, trials=[0, 1, 2 ** 32 - 1, 2 ** 32], bounds=[1, 5, 1, 2, 1])
@example(seed=0, tag=1, trials=[3], bounds=[2 ** 32, 7])
def test_draw_rows_match_the_streams(seed, tag, trials, bounds):
    rows = draw_rows(seed, tag, trials, bounds)
    assert rows.dtype == np.int64 and rows.shape == (len(trials), len(bounds))
    assert rows.tolist() == _stream_rows(seed, tag, trials, bounds)


def test_rare_rows_are_drawn_by_the_stream(stream_calls):
    trials = [*range(200), 2 ** 32, 2 ** 40 + 1]
    bounds = [3, 2 ** 31 + 1, 1, 2 ** 32 - 1]
    rows = draw_rows(11, rng.WALK, trials, bounds)
    assert rows.tolist() == _stream_rows(11, rng.WALK, trials, bounds)
    check, *rare = [address[2] for address in stream_calls]
    # the first array row, then the rejected rows and both wide trial ids in order
    assert check not in rare and rare == sorted(rare) and rare[-2:] == [2 ** 32, 2 ** 40 + 1]
    assert 50 < len(rare) < 150
    stream_calls.clear()
    assert draw_rows(11, rng.WALK, range(200), [3, 5, 1]).tolist() == _stream_rows(
        11, rng.WALK, range(200), [3, 5, 1])
    assert [address[2] for address in stream_calls] == [0]  # only the check row
    stream_calls.clear()
    draw_rows(11, rng.WALK, range(5), [2 ** 32 + 1])
    assert len(stream_calls) == 5  # a 64-bit bound: every row by the stream


def test_a_disagreeing_stream_makes_draw_rows_raise(monkeypatch):
    real = rng.stream
    monkeypatch.setattr(rng, "stream", lambda seed, *path: real(seed + 1, *path))
    with pytest.raises(RuntimeError, match=f"numpy {np.__version__}") as exc:
        draw_rows(3, rng.WALK, range(10), [10, 7])
    assert "\n" not in str(exc.value)


# numpy 2.4.6's streams at three addresses; a numpy that changes them fails here
@pytest.mark.parametrize("address, bounds, row", [
    ((20250808, rng.WALK, 0), [2184, 14, 14, 14, 14], [1956, 8, 12, 9, 9]),
    ((0, rng.SOLUTION, 2 ** 32 - 1), [64, 1, 2], [63, 0, 0]),
    ((2 ** 70 + 1, rng.WALK2, 12345), [24360, 1, 42, 2 ** 31 + 1, 2 ** 32 - 1],
     [10027, 0, 19, 995080344, 3006986035]),
])
def test_golden_rows(address, bounds, row):
    seed, tag, trial = address
    # behind trial 7, the row the call checks against the stream
    assert draw_rows(seed, tag, [7, trial], bounds)[1].tolist() == row
    assert _stream_rows(seed, tag, [trial], bounds) == [row]


def test_draw_rows_edges():
    assert draw_rows(1, 2, [], [5, 6]).shape == (0, 2)
    assert draw_rows(1, 2, range(3), []).shape == (3, 0)
    assert draw_rows(1, 2, range(3), [1, 1]).tolist() == [[0, 0]] * 3
    with pytest.raises(ValueError, match="bounds must be positive"):
        draw_rows(1, 2, range(3), [4, 0])
    for address in ((-1, 2, [0]), (1, -2, [0]), (1, 2, [3, -1])):
        with pytest.raises(ValueError, match="nonnegative"):
            draw_rows(*address, [4])
