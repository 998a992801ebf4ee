import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowdpi.sampler import (EQUAL_DELTA_GROWTH, AdaptiveSampler,
                             InsufficientHistoryError, SamplerConfig,
                             next_window, predict_next, trace, window_delta)

CFG = SamplerConfig()


class TestPredictNext:
    def test_hand_trace(self):
        # w=[5,7,9], d=[1,2,4]: slope (2-1)/(7-5)=0.5, dw=2 -> 2 + 2*0.5 = 3
        assert predict_next([(5, 1), (7, 2), (9, 4)], 2) == 3.0

    def test_zero_variation_history_falls_back_to_latest(self):
        assert predict_next([(5, 2), (5, 2), (5, 2)], 0) == 2.0

    def test_partial_skip_reduces_divisor(self):
        # slopes: skip (5->5), keep (5->7): (3-2)/2 = 0.5
        assert predict_next([(5, 1), (5, 2), (7, 3), (9, 0)], 2) == 3 + 1.0

    def test_insufficient_history(self):
        with pytest.raises(InsufficientHistoryError):
            predict_next([(5, 1), (7, 2)], 2)


class TestWindowDelta:
    def test_equal_delta_equal_window_grows(self):
        hist = [(5, 1), (9, 2), (9, 2)]
        assert window_delta(hist, 2.5, 2) == EQUAL_DELTA_GROWTH == 5

    def test_equal_delta_unequal_window_backs_off(self):
        hist = [(5, 1), (7, 2), (9, 2)]
        assert window_delta(hist, 2.5, 2) == -1.0   # -dw/2 = -2/2

    def test_exact_prediction_keeps_window(self):
        hist = [(5, 1), (7, 2), (9, 3)]
        assert window_delta(hist, 3.0, 3) == 0.0

    def test_hand_trace_ratio_branch(self):
        # R = (3-2)/(4-2) = 0.5, dw = 2 -> -sign(3-4)*|0.5*2| = +1
        hist = [(5, 1), (7, 2), (9, 4)]
        assert window_delta(hist, 3.0, 4) == 1.0

    def test_zero_dw_deviation_forces_movement(self):
        # flat window with changing delta would freeze the ratio rule
        hist = [(5, 1), (9, 2), (9, 4)]
        assert window_delta(hist, 2.0, 4) == 5.0


class TestNextWindow:
    def test_hand_trace_continuation(self):
        assert next_window(9, 1.0, CFG) == 10

    def test_upper_clamp(self):
        assert next_window(15, 5.0, CFG) == 15

    def test_lower_clamp_with_rounding(self):
        # 5 - 3.5 = 1.5, rounds half away to 2, clamps to 5
        assert next_window(5, -3.5, CFG) == 5

    def test_round_half_away_from_zero(self):
        assert next_window(5, 1.5, CFG) == 7       # 6.5 rounds away to 7
        assert next_window(10, -0.5, CFG) == 10    # 9.5 rounds away to 10
        assert next_window(10, -1.6, CFG) == 8     # 8.4 rounds down


class TestRecordSample:
    def test_append(self):
        s = AdaptiveSampler(CFG)
        s.record_sample(10, 3)
        assert list(s.history) == [(10, 3)]

    def test_history_cap_evicts_oldest(self):
        s = AdaptiveSampler(CFG)
        for i in range(11):
            s.record_sample(5 + i % 2, 0)
        assert len(s.history) == 10
        assert s.history[0] == (6, 0)

    def test_delta_above_window_rejected(self):
        s = AdaptiveSampler(CFG)
        with pytest.raises(ValueError):
            s.record_sample(5, 7)

    def test_window_outside_bounds_rejected(self):
        s = AdaptiveSampler(CFG)
        with pytest.raises(ValueError):
            s.record_sample(16, 0)


class TestStep:
    def test_warm_up_returns_initial_window(self):
        s = AdaptiveSampler(CFG)
        assert s.current_window == CFG.w_min
        assert s.step(0) == (None, None)
        assert s.current_window == CFG.w_min
        assert s.step(1) == (None, None)
        assert s.current_window == CFG.w_min

    def test_hand_trace_full_loop(self):
        s = AdaptiveSampler(CFG)
        s.record_sample(5, 1)
        s.record_sample(7, 2)
        s.current_window = 9
        assert s.step(4) == (3.0, 1.0)
        assert s.current_window == 10

    def test_growth_branch_from_cold_start(self):
        # third step sees history (5,0),(5,0),(5,0): equal deltas, equal
        # windows, so the window must grow by EQUAL_DELTA_GROWTH
        s = AdaptiveSampler(CFG)
        s.step(0)
        s.step(0)
        s.step(0)
        assert s.current_window == 10

    def test_determinism(self):
        deltas = [0, 1, 3, 2, 0, 5, 4, 1, 0, 2, 3, 3]
        runs = []
        for _ in range(2):
            s = AdaptiveSampler(CFG)
            run = []
            for d in deltas:
                s.step(min(d, s.current_window))
                run.append(s.current_window)
            runs.append(run)
        assert runs[0] == runs[1]


@given(st.lists(st.integers(0, 15), min_size=1, max_size=40),
       st.integers(0, 2**31))
@settings(max_examples=200, deadline=None)
def test_windows_always_within_bounds(deltas, _seed):
    s = AdaptiveSampler(CFG)
    for d in deltas:
        s.step(min(d, s.current_window))
        assert CFG.w_min <= s.current_window <= CFG.w_max


@given(st.integers(5, 15), st.integers(0, 5))
def test_growth_branch_strictly_grows_until_clamped(w, delta):
    delta = min(delta, w)
    s = AdaptiveSampler(CFG)
    s.history.extend([(w, delta), (w, delta)])
    s.current_window = w
    s.step(delta)
    new_w = s.current_window
    if w < CFG.w_max:
        assert new_w > w
    else:
        assert new_w == CFG.w_max


def test_trace_rows_expose_prediction():
    rows = trace(CFG, [1, 2, 4])
    assert [(r.w, r.delta) for r in rows] == [(5, 1), (5, 2), (5, 4)]
    assert rows[0].predicted is None and rows[1].predicted is None
    assert rows[2].predicted is not None


def test_zero_hit_flow_climbs_to_w_max():
    """A hit count equal to the last one backs the window off by half its
    last change, or grows an unchanged window by 5, so a flow with no
    hits drifts up to w_max rather than back toward w_min (README)."""
    windows = [r.w for r in trace(CFG, [0] * 16)]
    assert windows == [5, 5, 5, 10, 8, 9, 9, 14, 12, 13, 13, 15, 14, 15,
                       15, 15]


def test_trace_clamps_oversized_deltas():
    rows = trace(CFG, [99, 99, 99, 99])
    for r in rows:
        assert r.delta == r.w


def test_trace_rejects_negative_deltas():
    with pytest.raises(ValueError, match="step 1: negative hit count -3"):
        trace(CFG, [1, -3, 2])


def test_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(w_min=10, w_max=5)
    with pytest.raises(ValueError):
        SamplerConfig(history_len=2)
    with pytest.raises(ValueError):
        SamplerConfig(w_max=200, m=100)
