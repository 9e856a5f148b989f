"""Dense tensors with a record-and-replay differentiation tape.

Every differentiable operation records a TapeNode, and the nodes form a DAG
through their edges: each node links to the node that produced each of its
inputs, to an input that is a requires-grad leaf, or to nothing for a
constant. The tape thus holds the graph and the arrays backward rules saved,
never a forward value for its own sake: an output that no rule saved dies
when the forward drops it. Backward walks that DAG in reverse topological
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
    """One recorded operation: an edge and a shape per input, saved values,
    and a backward rule.

    ``inputs`` holds one edge per input Tensor, in input order: the
    producing TapeNode for a recorded input, the Tensor itself for a
    requires-grad leaf, and None for a constant; ``shapes`` holds the
    inputs' shapes. No input's value is kept, only what ``saved`` holds.
    ``backward_fn(grad_out, saved)`` returns one gradient array (or None)
    per input, in input order. Once a backward pass has consumed the node,
    its saved values are released and its edges dropped (``inputs`` is
    None), so a consumed node keeps no tensor or saved array alive.
    """

    __slots__ = ("op", "inputs", "shapes", "saved", "backward_fn", "_saved_scalars")

    def __init__(
        self,
        op: str,
        inputs: tuple["Tensor", ...],
        saved: tuple[np.ndarray, ...],
        backward_fn: Callable,
    ) -> None:
        self.op = op
        self.inputs = tuple([_edge(t) for t in inputs])
        self.shapes = tuple([t.data.shape for t in inputs])
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


def _edge(t: Tensor) -> TapeNode | Tensor | None:
    """Where a gradient for ``t`` goes: its producing node, ``t`` itself
    when it is a requires-grad leaf, or nowhere (None) for a constant."""
    if t.node is not None:
        return t.node
    return t if t.requires_grad else None


def _toposort(roots: Iterable[TapeNode | Tensor | None]) -> list[TapeNode | Tensor]:
    """Deterministic post-order over the edges reachable from ``roots``:
    every node after the edges it links to. None edges are skipped."""
    order: list[TapeNode | Tensor] = []
    seen: set[int] = set()
    stack = [(r, False) for r in reversed(list(roots)) if r is not None]
    while stack:
        e, expanded = stack.pop()
        if expanded:
            order.append(e)
            continue
        if id(e) in seen:
            continue
        seen.add(id(e))
        stack.append((e, True))
        # a leaf has no edges; a walked node has dropped its own, and the
        # walk refuses it by name
        if isinstance(e, TapeNode) and e.inputs is not None:
            for inp in reversed(e.inputs):
                if inp is not None and id(inp) not in seen:
                    stack.append((inp, False))
    return order


def _visit(node: TapeNode, g: np.ndarray, grad_table: dict[TapeNode | Tensor, np.ndarray]) -> None:
    """Run ``node``'s backward on ``g`` and add its input gradients into
    ``grad_table``, keyed by edge, then release its saved values and drop
    its edges. A constant's gradient is checked and dropped.

    Nothing of the node outlives the visit but the gradients it hands on.
    """
    if node.inputs is None:
        raise RuntimeError(f"backward of {node.op!r}: its tape was already walked; rebuild the forward")
    input_grads = node.backward_fn(g, node.saved)
    node.release()
    inputs, node.inputs = node.inputs, None
    for edge, shape, ig in zip(inputs, node.shapes, input_grads):
        if ig is None:
            continue
        if ig.shape != shape:
            raise AssertionError(f"backward of {node.op}: gradient shape {ig.shape} != input shape {shape}")
        if edge is None:
            continue
        grad_table[edge] = grad_table[edge] + ig if edge in grad_table else ig


def _seed_table(outputs: list[Tensor], output_grads: list[np.ndarray]) -> dict[TapeNode | Tensor, np.ndarray]:
    """The walk's first gradients, keyed by each root's edge: each seed in
    its root's dtype, uncopied; a root given twice sums its seeds, and a
    constant root's seed is checked and dropped. A function of its own, so
    no loop variable of the walk's frame holds a root."""
    if len(outputs) != len(output_grads):
        raise ValueError("outputs and output_grads must align")
    table: dict[TapeNode | Tensor, np.ndarray] = {}
    for out, g in zip(outputs, output_grads):
        g = np.asarray(g, dtype=out.data.dtype)
        if g.shape != out.data.shape:
            raise ValueError(f"seed gradient shape {g.shape} != output shape {out.data.shape}")
        edge = _edge(out)
        if edge is not None:
            table[edge] = table[edge] + g if edge in table else g
    return table


def backward_from(outputs: list[Tensor], output_grads: list[np.ndarray]) -> dict[Tensor, np.ndarray]:
    """Reverse-mode sweep seeded with explicit output gradients; returns
    the gradient of every requires-grad leaf reached, keyed by the leaf.

    Supports non-scalar outputs; this is the injection point used by the
    gradient cache (embedding-level gradients pushed into a recorded chunk).
    The walk runs over edges, not tensors: it holds the roots' nodes, never
    the roots, so a root the caller does not keep dies once it has seeded
    the walk. It frees what it has consumed: it pops each edge off the
    topological order as it reaches it, and once a node's backward has run
    the node releases its saved values and drops its edges. So a tape can
    be walked once; a second walk raises ``RuntimeError``. Rebuild the
    forward to differentiate again.

    The seeds are not copied: the first rules read the caller's arrays, as
    no backward rule writes its incoming gradient. A leaf's gradient that
    shares memory with a seed (a root that is itself a leaf, or one reached
    only through views) is returned as a copy, so no returned gradient
    aliases the caller's arrays.
    """
    grad_table = _seed_table(outputs, output_grads)
    seeds = list(grad_table.values())
    order = _toposort(_edge(out) for out in outputs)
    # from here the walk holds no root, only the roots' nodes
    del outputs
    result: dict[Tensor, np.ndarray] = {}
    while order:
        e = order.pop()
        g = grad_table.pop(e, None)
        if g is None:
            continue
        if isinstance(e, Tensor):
            result[e] = g.copy() if any(np.may_share_memory(g, s) for s in seeds) else g
        else:
            _visit(e, g, grad_table)
    return result


def evaluate_and_backward(root: Tensor) -> dict[Tensor, np.ndarray]:
    """Gradients of a scalar root with respect to every requires-grad leaf."""
    if root.data.ndim != 0 and root.data.size != 1:
        raise ValueError(f"backward root must be scalar, got shape {root.data.shape}")
    seed = np.ones_like(root.data)
    return backward_from([root], [seed])
