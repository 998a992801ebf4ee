"""Linear-prediction adaptive packet sampling.

Each flow is inspected in epochs of m packets; only the first w packets of
an epoch are sampled.  After every epoch the malicious hit count of the
sampled window is compared with a linear extrapolation over the recent
(window size, hit count) history, and the next window size is grown or
shrunk accordingly, clamped to [w_min, w_max].
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Sequence, Tuple


class InsufficientHistoryError(ValueError):
    """Prediction requested with fewer than three recorded samples."""


# window change when the hit count repeats on a flat window, or when the
# window is flat and the ratio rule would freeze it
EQUAL_DELTA_GROWTH = 5


@dataclass(frozen=True)
class SamplerConfig:
    """Epoch length m, window bounds (the first window is w_min) and the
    number of (window, hit count) samples the prediction looks back on."""

    m: int = 100
    w_min: int = 5
    w_max: int = 15
    history_len: int = 10

    def __post_init__(self):
        if not (1 <= self.w_min <= self.w_max <= self.m):
            raise ValueError(
                f"need 1 <= w_min <= w_max <= m, got w_min={self.w_min} "
                f"w_max={self.w_max} m={self.m}")
        if self.history_len < 3:
            raise ValueError("history_len must be >= 3")


Sample = Tuple[int, int]   # (window size w_i, malicious count delta_i)


def predict_next(history: Sequence[Sample], delta_w: float) -> float:
    """Predicted malicious count for the latest window.

    ``history`` holds the n+1 samples (w_1, d_1) .. (w_{n+1}, d_{n+1});
    the prediction uses d_1..d_n only plus ``delta_w`` = w_{n+1} - w_n.
    Slope terms with w_{i+1} == w_i are skipped and the averaging divisor
    shrinks to the number of kept terms; if every term is skipped the sum
    contributes nothing.
    """
    if len(history) < 3:
        raise InsufficientHistoryError(
            f"need at least 3 samples, have {len(history)}")
    d_n = history[-2][1]
    # summed left to right: builtin sum() rounds differently from 3.12 on
    total, kept = 0.0, 0
    for (w_a, d_a), (w_b, d_b) in zip(history[:-2], history[1:-1]):
        if w_b != w_a:
            total += (d_b - d_a) / (w_b - w_a)
            kept += 1
    if not kept:
        return float(d_n)
    return d_n + delta_w * (total / kept)


def window_delta(history: Sequence[Sample], predicted: float,
                 actual: float) -> float:
    """Change to apply to the window size for the next sample."""
    w_n, d_n = history[-2]
    w_n1 = history[-1][0]
    dw = w_n1 - w_n
    if actual == d_n:
        # ratio undefined: grow on a flat window, otherwise back off
        if w_n1 == w_n:
            return float(EQUAL_DELTA_GROWTH)
        return -dw / 2.0
    if predicted == actual:
        return 0.0
    if dw == 0:
        # the ratio rule would freeze the window forever; force movement
        return float(EQUAL_DELTA_GROWTH)
    ratio = (predicted - d_n) / (actual - d_n)
    return -math.copysign(1.0, predicted - actual) * abs(ratio * dw)


def _round_half_away(x: float) -> int:
    return int(math.floor(x + 0.5)) if x >= 0 else int(math.ceil(x - 0.5))


def next_window(current_w: int, dw_next: float, config: SamplerConfig) -> int:
    w = _round_half_away(current_w + dw_next)
    return max(config.w_min, min(config.w_max, w))


@dataclass
class AdaptiveSampler:
    """Per-flow sampler state driving the adaptive window loop."""

    config: SamplerConfig = field(default_factory=SamplerConfig)
    history: Deque[Sample] = field(init=False)
    current_window: int = field(init=False)

    def __post_init__(self):
        self.history = deque(maxlen=self.config.history_len)
        self.current_window = self.config.w_min

    def record_sample(self, w: int, delta: int) -> None:
        if not 0 <= delta <= w:
            raise ValueError(f"need 0 <= delta <= w, got delta={delta} w={w}")
        if not self.config.w_min <= w <= self.config.w_max:
            raise ValueError(f"window {w} outside "
                             f"[{self.config.w_min}, {self.config.w_max}]")
        self.history.append((w, delta))

    def step(self, delta_latest: int) -> tuple[float | None, float | None]:
        """Record the completed window's hit count and move
        ``current_window`` to the next window.

        Returns the predicted hit count and the window change; both are
        None while fewer than three samples are recorded.
        """
        self.record_sample(self.current_window, delta_latest)
        history = list(self.history)
        if len(history) < 3:
            return None, None
        predicted = predict_next(history, history[-1][0] - history[-2][0])
        dw_next = window_delta(history, predicted, float(delta_latest))
        self.current_window = next_window(self.current_window, dw_next,
                                          self.config)
        return predicted, dw_next


@dataclass(frozen=True)
class TraceRow:
    step: int
    w: int
    delta: int
    predicted: float | None
    dw_next: float | None


def trace(config: SamplerConfig, deltas: Sequence[int]) -> list[TraceRow]:
    """Replay a sequence of per-window hit counts through the sampler,
    exposing the intermediate prediction and window adjustment.

    Hit counts larger than the current window are clamped to it; a
    negative count raises ``ValueError``.
    """
    sampler = AdaptiveSampler(config)
    rows = []
    for i, raw in enumerate(deltas):
        if raw < 0:
            raise ValueError(f"step {i}: negative hit count {raw}")
        w = sampler.current_window
        delta = min(int(raw), w)
        rows.append(TraceRow(i, w, delta, *sampler.step(delta)))
    return rows
