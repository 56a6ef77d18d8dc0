"""Per-fragment kernel stages shared by the thread and process backends.

A fused operator chain compiles to a sequence of *stages*, each the
module-level functions below specialised through ``functools.partial``.
Module-level functions (unlike the closures the datacube layer used to
build) survive pickling, so the same compiled chain can run on the
in-process thread pool or ship to a spawn-based worker process
unchanged.

Stage protocol
--------------
``stage(data, i) -> (out, extra_avoided_bytes)`` where *i* is the
fragment index.  *extra* is the avoided-materialisation byte count the
stage accounts for internally — only :func:`stage_binop` uses it, to
meter the operand chain it runs on the side.  The caller
(:class:`repro.parallel.FragmentKernel`) adds ``out.nbytes`` for metered
stages on top, so fusion metrics are byte-identical whichever backend
executes the sweep.

Intercube operators are encoded by *name* (looked up in
:data:`INTERCUBE_OPS` at run time) rather than by callable: several of
the ops are lambdas, which do not pickle, while a module-attribute
lookup resolves in a spawned worker for free.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.ophidia.primitives import evaluate_ast

__all__ = [
    "INTERCUBE_OPS",
    "REDUCERS",
    "kernel_stage_names",
    "run_lengths",
    "stage_apply",
    "stage_binop",
    "stage_binop_full",
    "stage_reduce",
    "stage_reduce2",
    "stage_runlength",
    "stage_subset",
    "stage_transform",
]


REDUCERS: Dict[str, Callable[..., np.ndarray]] = {
    "max": np.max,
    "min": np.min,
    "sum": np.sum,
    "mean": np.mean,
    "std": np.std,
    "var": np.var,
}

INTERCUBE_OPS: Dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "sub": np.subtract,
    "add": np.add,
    "mul": np.multiply,
    "div": np.divide,
    "greater": lambda a, b: (a > b).astype(np.int8),
    "greater_equal": lambda a, b: (a >= b).astype(np.int8),
    "less": lambda a, b: (a < b).astype(np.int8),
    "less_equal": lambda a, b: (a <= b).astype(np.int8),
}


def kernel_stage_names(kernel: Any) -> List[str]:
    """Human-readable stage names of a compiled kernel (span attributes).

    Stages are ``functools.partial`` specialisations of the module-level
    functions below; unwrap to the underlying function's name so worker
    spans say what the sweep computed (``stage_apply``, ``stage_reduce``,
    ...) without shipping the callables themselves.
    """
    names: List[str] = []
    for stage in getattr(kernel, "stages", ()):
        fn = stage
        while isinstance(fn, functools.partial):
            fn = fn.func
        names.append(getattr(fn, "__name__", repr(fn)))
    return names


def run_lengths(mask: np.ndarray, axis: int) -> np.ndarray:
    """Completed-run lengths of True values along *axis* (int32).

    Output[t] = k if a maximal run of k consecutive True values ends at
    position t, else 0.
    """
    mask = np.asarray(mask, dtype=bool)
    moved = np.moveaxis(mask, axis, 0)
    steps = moved.shape[0]
    running = np.zeros(moved.shape[1:], dtype=np.int32)
    out = np.zeros(moved.shape, dtype=np.int32)
    for t in range(steps):
        running = (running + 1) * moved[t]
        ends = moved[t] & (~moved[t + 1] if t + 1 < steps else True)
        out[t] = np.where(ends, running, 0)
    return np.moveaxis(out, 0, axis)


# ---------------------------------------------------------------------------
# Elementwise stages
# ---------------------------------------------------------------------------


def stage_apply(data: np.ndarray, i: int, *, ast: tuple) -> Tuple[np.ndarray, int]:
    """``oph_apply``: evaluate a parsed primitive-expression AST."""
    return np.asarray(evaluate_ast(ast, data)), 0


def stage_transform(
    data: np.ndarray, i: int, *, fn: Callable[[np.ndarray], np.ndarray]
) -> Tuple[np.ndarray, int]:
    """``oph_transform``: arbitrary shape-preserving callable."""
    out = np.asarray(fn(data))
    if out.shape != data.shape:
        raise ValueError("transform callable must preserve fragment shape")
    return out, 0


def stage_subset(
    data: np.ndarray, i: int, *, axis: int, start: int, stop: int
) -> Tuple[np.ndarray, int]:
    """``oph_subset`` along a non-fragment dimension."""
    indexer = [slice(None)] * data.ndim
    indexer[axis] = slice(start, stop)
    return np.ascontiguousarray(data[tuple(indexer)]), 0


def stage_runlength(data: np.ndarray, i: int, *, axis: int) -> Tuple[np.ndarray, int]:
    """``oph_runlength``: consecutive-run durations of positive values."""
    return run_lengths(data > 0, axis), 0


def stage_binop(
    data: np.ndarray,
    i: int,
    *,
    op_name: str,
    operands: Sequence[np.ndarray],
    operand_stages: Sequence[Callable[..., Tuple[np.ndarray, int]]],
) -> Tuple[np.ndarray, int]:
    """``oph_intercube`` with a fragment-aligned operand.

    *operands* holds the operand's base fragments (preloaded at plan
    resolution so the stage needs no storage-pool access);
    *operand_stages* is the operand's own fused chain, run here with
    every stage output metered — the operand chain streams through this
    sweep instead of materialising, exactly as on the old closure path.
    A spilled operand arrives as a cold-fragment handle and hydrates
    here, inside whichever worker runs the stage.
    """
    b = operands[i]
    b = b.hydrate() if hasattr(b, "hydrate") else np.asarray(b)
    extra = 0
    for stage in operand_stages:
        b, e = stage(b, i)
        extra += e + b.nbytes
    return np.asarray(INTERCUBE_OPS[op_name](data, b)), extra


def stage_binop_full(
    data: np.ndarray,
    i: int,
    *,
    op_name: str,
    full: np.ndarray,
    frag_axis: int,
    bounds: Sequence[Tuple[int, int]],
) -> Tuple[np.ndarray, int]:
    """``oph_intercube`` with a misaligned operand, pre-gathered to *full*."""
    indexer = [slice(None)] * full.ndim
    indexer[frag_axis] = slice(bounds[i][0], bounds[i][1])
    return np.asarray(INTERCUBE_OPS[op_name](data, full[tuple(indexer)])), 0


# ---------------------------------------------------------------------------
# Terminal (consuming) stages
# ---------------------------------------------------------------------------


def stage_reduce(
    data: np.ndarray, i: int, *, op: str, axis: int
) -> Tuple[np.ndarray, int]:
    """``oph_reduce`` along a non-fragment dimension."""
    return np.asarray(REDUCERS[op](data, axis=axis)), 0


def stage_reduce2(
    data: np.ndarray, i: int, *, op: str, axis: int, n_groups: int, group_size: int
) -> Tuple[np.ndarray, int]:
    """``oph_reduce2``: grouped reduction in blocks of *group_size*."""
    shape = list(data.shape)
    shape[axis:axis + 1] = [n_groups, group_size]
    return np.asarray(REDUCERS[op](data.reshape(shape), axis=axis + 1)), 0
