"""Fixed reference probes that measure how fast the shared machine is right now.

On a shared host the same code runs up to about 1.7 times slower for tens of seconds
at a time, in CPU time as well as wall time, so run-level medians of the program's own
times move by 15-50% between runs minutes apart. The workloads run a probe before
every timed unit, outside that unit's timing, and `run.py` scales the timed
end-to-end metrics by ``reference_s / median probe time``: they read as seconds on a
machine where the probe takes `reference_s`.

The probes use nothing from `florence_mini` and their inputs do not depend on the
workload's inputs or the seed, so a change to the program moves the scaled metrics by
the same factor as the raw ones. A slow period does not slow all code alike: tiny
numpy ops and Python loops slow most, blocks on large arrays least. So each workload
uses the probe that mirrors its own bound, as the workload list describes them:

- "overhead": a loop of tiny numpy ops shaped like a few-shot adapter step, one
  transformer block on each token grid of the 32 px image tower at batch 4, and a
  plain Python loop;
- "array": one transformer block on each token grid of the 64 px image tower at
  batch 8.
"""

from __future__ import annotations

import time

import numpy as np

_rng = np.random.default_rng(0x5EED)
_X = _rng.normal(size=(25, 64))
_Y = np.eye(5)[np.repeat(np.arange(5), 5)]


def _block_params(width: int) -> list[np.ndarray]:
    return [_rng.normal(size=s) / np.sqrt(s[0]) for s in ((width, 3 * width), (width, width), (width, 4 * width), (4 * width, width))]


def _stages(batch: int, image_size: int) -> list[tuple[np.ndarray, list[np.ndarray]]]:
    """Token grids of the two image-tower stages: (side/4)^2 tokens of width 32, then a quarter as many of width 64."""
    tokens = (image_size // 4) ** 2
    return [(_rng.normal(size=(batch, tokens, 32)), _block_params(32)), (_rng.normal(size=(batch, tokens // 4, 64)), _block_params(64))]


_STAGES_32 = _stages(4, 32)
_STAGES_64 = _stages(8, 64)


def _layer_norm(x: np.ndarray) -> np.ndarray:
    mean = x.mean(-1, keepdims=True)
    return (x - mean) / np.sqrt(((x - mean) ** 2).mean(-1, keepdims=True) + 1e-5)


def _block(x: np.ndarray, params: list[np.ndarray], heads: int = 2) -> np.ndarray:
    """A pre-norm transformer block: two-head attention, then a GELU MLP."""
    b, t, w = x.shape
    w_qkv, w_out, w_up, w_down = params
    q, k, v = (_layer_norm(x) @ w_qkv).reshape(b, t, 3, heads, w // heads).transpose(2, 0, 3, 1, 4)
    a = q @ k.transpose(0, 1, 3, 2) / np.sqrt(w // heads)
    a = np.exp(a - a.max(-1, keepdims=True))
    a /= a.sum(-1, keepdims=True)
    x = x + (a @ v).transpose(0, 2, 1, 3).reshape(b, t, w) @ w_out
    h = _layer_norm(x) @ w_up
    return x + 0.5 * h * (1.0 + np.tanh(0.7978845608 * (h + 0.044715 * h**3))) @ w_down


def _overhead_kernel() -> None:
    w = np.zeros((64, 5))
    for _ in range(300):
        logits = _X @ w
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        w -= 0.1 * (_X.T @ ((p - _Y) / 25))
    for x, params in _STAGES_32:
        _block(x, params)
    s = 0
    for i in range(30000):
        s += i


def _array_kernel() -> None:
    for x, params in _STAGES_64:
        _block(x, params)


# kind -> (kernel, its wall time in a quiet period on the 2-core machine the bounds were set on)
KINDS = {"overhead": (_overhead_kernel, 0.014), "array": (_array_kernel, 0.065)}


class Probes:
    """Wall and CPU time of every probe of one kind in a run."""

    def __init__(self, kind: str) -> None:
        self.kernel, self.reference_s = KINDS[kind]
        self.wall: list[float] = []
        self.cpu: list[float] = []

    def __call__(self) -> None:
        w0, c0 = time.perf_counter(), time.process_time()
        self.kernel()
        self.wall.append(time.perf_counter() - w0)
        self.cpu.append(time.process_time() - c0)
