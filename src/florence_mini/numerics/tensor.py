"""Dense tensors with a record-and-replay differentiation tape.

Every differentiable operation appends a TapeNode to the implicit tape (the
DAG hanging off each Tensor). Backward walks that DAG in reverse topological
order, accumulating gradients in a fixed, deterministic order, and frees what
it has consumed as it goes. Values saved for backward are tracked by a global
activation meter so memory-saving strategies (activation checkpointing,
gradient caching) can be measured in exact scalar counts instead of device
bytes; the meter sees saved values only, not forward outputs or a backward
rule's temporaries.

Reference mode is single-threaded; all reductions use numpy's fixed
evaluation order, so identical tapes with identical leaf values produce
bit-identical outputs and gradients.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable

import numpy as np

FLOAT_DTYPES = (np.float32, np.float64)


class ActivationMeter:
    """Counts scalars currently saved on the tape for backward use."""

    def __init__(self) -> None:
        self.current = 0
        self.peak = 0

    def add(self, n: int) -> None:
        self.current += n
        if self.current > self.peak:
            self.peak = self.current

    def sub(self, n: int) -> None:
        self.current -= n

    def reset(self) -> None:
        self.current = 0
        self.peak = 0


activation_meter = ActivationMeter()

_grad_enabled = True


def grad_enabled() -> bool:
    return _grad_enabled


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


@contextlib.contextmanager
def enable_grad():
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = True
    try:
        yield
    finally:
        _grad_enabled = prev


class TapeNode:
    """One recorded operation: inputs, saved values, and a backward rule.

    ``backward_fn(grad_out, saved)`` returns one gradient array (or None)
    per input, in input order. Once a backward pass has consumed the node,
    its saved values are released and its inputs dropped (``inputs`` is
    None), so a consumed node keeps no tensor or saved array alive.
    """

    __slots__ = ("op", "inputs", "saved", "backward_fn", "_saved_scalars")

    def __init__(
        self,
        op: str,
        inputs: tuple["Tensor", ...],
        saved: tuple[np.ndarray, ...],
        backward_fn: Callable,
    ) -> None:
        self.op = op
        self.inputs = inputs
        self.saved = saved
        self.backward_fn = backward_fn
        self._saved_scalars = int(sum(a.size for a in saved))
        activation_meter.add(self._saved_scalars)

    def release(self) -> None:
        if self.saved is not None:
            activation_meter.sub(self._saved_scalars)
            self.saved = None

    def __del__(self):
        # Tapes abandoned without a backward pass still release their count.
        try:
            self.release()
        except Exception:
            pass


class Tensor:
    """Immutable-by-convention dense float32 or float64 array, optionally
    on the tape.

    ``data`` is a row-major numpy array; ``requires_grad`` marks leaves that
    should receive gradients; ``node`` links a non-leaf to the operation
    that produced it. A Tensor hashes by identity, so gradients are keyed by
    the leaf itself; ``name`` is only a label.
    """

    __slots__ = ("data", "requires_grad", "node", "name")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        node: TapeNode | None = None,
        name: str | None = None,
    ) -> None:
        arr = np.asarray(data)
        if arr.dtype.type not in FLOAT_DTYPES:
            raise TypeError(f"a Tensor holds a floating dtype, float32 or float64; got {arr.dtype}")
        self.data = arr
        self.requires_grad = requires_grad
        self.node = node
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{tag})"


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether ``a`` and ``b`` have one shape, one dtype and the same bit
    pattern in every element, as ``tobytes()`` equality says, but compared
    in place through equal-width unsigned-integer views: a zero's sign and a
    NaN's payload count, and neither array is copied."""
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    bits = np.dtype(f"u{a.dtype.itemsize}")
    return bool(np.array_equal(a.view(bits), b.view(bits)))


def record(op: str, out: np.ndarray, inputs, saved, backward_fn) -> Tensor:
    """Wrap an op's output, attaching a TapeNode when grad is enabled and
    some input is on the tape (a requires-grad leaf or a recorded result)."""
    if grad_enabled() and any(t.requires_grad or t.node is not None for t in inputs):
        return Tensor(out, node=TapeNode(op, tuple(inputs), tuple(saved), backward_fn))
    return Tensor(out)


def _toposort(roots: Iterable[Tensor]) -> list[Tensor]:
    """Deterministic post-order over the DAG reachable from ``roots``."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(r, False) for r in reversed(list(roots))]
    while stack:
        t, expanded = stack.pop()
        if expanded:
            order.append(t)
            continue
        if id(t) in seen:
            continue
        seen.add(id(t))
        stack.append((t, True))
        # a walked node has dropped its inputs; the walk refuses it by name
        if t.node is not None and t.node.inputs is not None:
            for inp in reversed(t.node.inputs):
                if id(inp) not in seen:
                    stack.append((inp, False))
    return order


def _visit(node: TapeNode, g: np.ndarray, grad_table: dict[int, np.ndarray]) -> None:
    """Run ``node``'s backward on ``g`` and add its input gradients into
    ``grad_table``, then release its saved values and drop its inputs.

    Nothing of the node outlives the visit but the gradients it hands on.
    """
    if node.inputs is None:
        raise RuntimeError(f"backward of {node.op!r}: its tape was already walked; rebuild the forward")
    input_grads = node.backward_fn(g, node.saved)
    node.release()
    inputs, node.inputs = node.inputs, None
    for inp, ig in zip(inputs, input_grads):
        if ig is None:
            continue
        if ig.shape != inp.data.shape:
            raise AssertionError(f"backward of {node.op}: gradient shape {ig.shape} != input shape {inp.data.shape}")
        if id(inp) in grad_table:
            grad_table[id(inp)] = grad_table[id(inp)] + ig
        else:
            grad_table[id(inp)] = ig


def _seed_table(outputs: list[Tensor], output_grads: list[np.ndarray]) -> dict[int, np.ndarray]:
    """The walk's first gradients, keyed by root id: each seed in its
    root's dtype, uncopied; a root given twice sums its seeds. A function
    of its own, so no loop variable of the walk's frame holds a root."""
    if len(outputs) != len(output_grads):
        raise ValueError("outputs and output_grads must align")
    table: dict[int, np.ndarray] = {}
    for out, g in zip(outputs, output_grads):
        g = np.asarray(g, dtype=out.data.dtype)
        if g.shape != out.data.shape:
            raise ValueError(f"seed gradient shape {g.shape} != output shape {out.data.shape}")
        table[id(out)] = table[id(out)] + g if id(out) in table else g
    return table


def backward_from(outputs: list[Tensor], output_grads: list[np.ndarray]) -> dict[Tensor, np.ndarray]:
    """Reverse-mode sweep seeded with explicit output gradients; returns
    the gradient of every requires-grad leaf reached, keyed by the leaf.

    Supports non-scalar outputs; this is the injection point used by the
    gradient cache (embedding-level gradients pushed into a recorded chunk).
    The walk frees what it has consumed: it pops each tensor off the
    topological order as it reaches it, and once a node's backward has run
    the node releases its saved values and drops its inputs. A forward
    output that the caller does not hold therefore dies once its gradient
    has been used, not when the walk ends; that holds for the roots too,
    once they have seeded the walk, when the caller hands over ``outputs``
    without keeping a reference. So a tape can be walked once; a second
    walk raises ``RuntimeError``. Rebuild the forward to differentiate
    again.

    The seeds are not copied: the first rules read the caller's arrays, as
    no backward rule writes its incoming gradient. A leaf's gradient that
    shares memory with a seed (a root that is itself a leaf, or one reached
    only through views) is returned as a copy, so no returned gradient
    aliases the caller's arrays.
    """
    grad_table = _seed_table(outputs, output_grads)
    seeds = list(grad_table.values())
    order = _toposort(outputs)
    # from here only the order holds the roots, and it pops each as it reaches it
    del outputs
    result: dict[Tensor, np.ndarray] = {}
    while order:
        t = order.pop()
        g = grad_table.pop(id(t), None)
        if g is None:
            continue
        if t.node is None:
            if t.requires_grad:
                result[t] = g.copy() if any(np.may_share_memory(g, s) for s in seeds) else g
            continue
        # no backward rule reads its own output through the tensor
        node, t = t.node, None
        _visit(node, g, grad_table)
    return result


def evaluate_and_backward(root: Tensor) -> dict[Tensor, np.ndarray]:
    """Gradients of a scalar root with respect to every requires-grad leaf."""
    if root.data.ndim != 0 and root.data.size != 1:
        raise ValueError(f"backward root must be scalar, got shape {root.data.shape}")
    seed = np.ones_like(root.data)
    return backward_from([root], [seed])
