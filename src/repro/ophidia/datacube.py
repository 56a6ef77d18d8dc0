"""The datacube abstraction and its operators.

A :class:`Cube` is a named multi-dimensional measure partitioned into
fragments along one dimension.  Operators never mutate a cube: each
produces a new cube whose fragments are computed fragment-parallel on
the server (and live in the I/O servers until :meth:`Cube.delete`).

The method surface mirrors PyOphidia's ``cube.Cube``: ``importnc2``,
``apply`` (with ``oph_*`` primitive queries), ``reduce``, ``reduce2``
(grouped), ``intercube``, ``subset``, ``merge``, ``exportnc2``,
``runlength`` (the consecutive-run operator behind heat-wave durations)
and metadata management.

Lazy evaluation and operator fusion
-----------------------------------
On a lazy server (the default, ``OphidiaServer(lazy=True)``) the
elementwise operators — ``apply``, ``transform``, ``subset`` along a
non-fragment dimension, ``runlength`` and ``intercube`` — do not write
fragments.  Each returns a *plan cube*: a cube whose fragments are
described by a per-fragment expression (a chain of plan steps rooted at
a concrete cube) rather than stored arrays.  At a forced-evaluation
point the whole chain is fused into a single pooled fragment sweep:
every base fragment is read once, the chain runs in memory, and only
the terminal result is written (or nothing at all for gather/export
barriers).

Forced-evaluation points are: ``reduce``/``reduce2`` (the fused chain
streams into the reducer in the same pass), any gather (``to_array``,
``merge``, ``subset``/``reduce`` along the fragment dimension,
``exportnc2``) and the explicit :meth:`Cube.materialize`.

Two further rules keep the lazy path byte- and lifecycle-equivalent to
eager execution:

* **Reuse materialisation** — when a chain is forced and an ancestor
  plan cube has already been evaluated once (a shared intermediate like
  the wave pipeline's qualifying-durations cube), that ancestor is
  materialised first so its work is not recomputed by every consumer.
* **Delete transparency** — deleting an unmaterialised plan cube keeps
  its plan alive for downstream consumers (there is nothing to free);
  deleting a *base* cube that a pending plan still needs surfaces a
  ``RuntimeError`` at the forced-evaluation point, and a failing fused
  sweep writes nothing, so fragment state is never corrupted.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.netcdf import Dataset
from repro.observability.metrics import get_registry
from repro.ophidia import kernels as K
from repro.ophidia.primitives import parse_primitive
from repro.ophidia.pruning import compile_prune_plan
from repro.ophidia.server import OphidiaServer
from repro.parallel import FragmentKernel


def _chunk_axis_for(names: Sequence[str], fragment_dim: str) -> int:
    """The storage chunk axis for a cube's fragments.

    Fragments chunk along the first *non*-fragment axis (time, for the
    usual (time, lat, lon)/lat-fragmented layout), so chunk statistics
    cut across the dimension predicates and subsets filter on.
    """
    try:
        frag_axis = list(names).index(fragment_dim)
    except ValueError:
        frag_axis = -1
    if frag_axis != 0:
        return 0
    return 1 if len(names) > 1 else 0


@dataclass(frozen=True)
class DimensionInfo:
    """A named cube dimension with optional coordinate values."""

    name: str
    size: int
    coords: Optional[tuple] = None

    def with_size(self, size: int, coords=None) -> "DimensionInfo":
        return DimensionInfo(self.name, size, coords)


@dataclass(frozen=True)
class _FragmentRef:
    """One fragment: storage id plus its index range on the fragment dim."""

    fragment_id: int
    start: int
    stop: int


@dataclass(frozen=True)
class _PlanStep:
    """One deferred elementwise operator in a plan cube's chain.

    ``kind`` selects the compilation rule; ``params`` hold whatever the
    per-fragment stage needs (parsed AST, callable, slice bounds, the
    intercube operand).  All plan steps preserve the fragment-dimension
    bounds, which is what makes chains fusable into one sweep.
    """

    op: str
    kind: str
    params: Tuple[Any, ...]


class _AvoidedMeter:
    """Accumulates intermediate bytes kept in memory during a fused sweep."""

    __slots__ = ("_lock", "total")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.total = 0

    def add(self, nbytes: int) -> None:
        with self._lock:
            self.total += int(nbytes)


def _flush_avoided(meter: _AvoidedMeter) -> None:
    if meter.total:
        get_registry().counter(
            "ophidia_materialize_bytes_avoided_total",
            "Intermediate bytes kept in memory instead of written to the pool",
        ).inc(meter.total)


# Historical homes of the operator tables; they now live in
# :mod:`repro.ophidia.kernels` so both execution backends share them.
_REDUCERS = K.REDUCERS
_INTERCUBE_OPS = K.INTERCUBE_OPS


class Cube:
    """A fragmented datacube resident in the Ophidia I/O servers.

    Construct via :meth:`importnc2` or :meth:`from_array`; the paper's
    idiom ``cube.Cube.client = client`` is supported through the
    class-level :attr:`client` attribute, used when no explicit client
    is passed.
    """

    #: PyOphidia-style ambient client (see the paper's Listing 1).
    client: Optional["Client"] = None  # noqa: F821 - forward ref

    _cube_ids = itertools.count(1)

    def __init__(
        self,
        server: OphidiaServer,
        dims: Sequence[DimensionInfo],
        fragment_dim: str,
        fragments: Optional[Sequence[_FragmentRef]],
        measure: str,
        description: str = "",
        metadata: Optional[Dict[str, Any]] = None,
        *,
        plan_input: Optional["Cube"] = None,
        plan_step: Optional[_PlanStep] = None,
        bounds: Optional[Sequence[Tuple[int, int]]] = None,
    ) -> None:
        if fragment_dim not in [d.name for d in dims]:
            raise ValueError(f"fragment dim {fragment_dim!r} not among cube dims")
        self._server = server
        self.dims: Tuple[DimensionInfo, ...] = tuple(dims)
        self.fragment_dim = fragment_dim
        if fragments is None:
            if plan_input is None or plan_step is None or bounds is None:
                raise ValueError(
                    "plan cube requires plan_input, plan_step and bounds"
                )
            self._fragments: Optional[Tuple[_FragmentRef, ...]] = None
            self._bounds: Tuple[Tuple[int, int], ...] = tuple(
                (int(s), int(e)) for s, e in bounds
            )
        else:
            self._fragments = tuple(fragments)
            self._bounds = tuple((r.start, r.stop) for r in self._fragments)
        self._plan_input = plan_input
        self._plan_step = plan_step
        #: Forced-evaluation count; drives materialise-on-reuse.
        self._evals = 0
        self.measure = measure
        self.description = description
        self.metadata: Dict[str, Any] = dict(metadata or {})
        self.cube_id = next(Cube._cube_ids)
        self._deleted = False
        server.log_operator(
            "create", cube_id=self.cube_id, measure=measure,
            description=description,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def dim_names(self) -> Tuple[str, ...]:
        return tuple(d.name for d in self.dims)

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(d.size for d in self.dims)

    @property
    def nfrag(self) -> int:
        return len(self._bounds)

    @property
    def is_lazy(self) -> bool:
        """True while this cube is an unmaterialised plan (no fragments stored)."""
        return self._fragments is None

    @property
    def nbytes(self) -> int:
        """Resident payload size across this cube's fragments.

        Used by the COMPSs transfer estimator: a task returning a cube
        "moves" the cube payload when consumed on another worker.  A
        deleted cube holds nothing, so it reports 0 rather than raising
        (size estimation must never fail a completing task).  An
        unmaterialised plan cube holds no fragments either; its payload
        is estimated from the shape at 8 bytes/element, since that is
        what a consumer would move after forcing it.  The peek does not
        count as a fragment read.
        """
        if self._deleted:
            return 0
        if self._fragments is None:
            return int(np.prod(self.shape, dtype=np.int64)) * 8
        pool = self._server.pool
        return sum(pool.fragment_nbytes(r.fragment_id) for r in self._fragments)

    def _axis(self, dim: str) -> int:
        try:
            return self.dim_names.index(dim)
        except ValueError:
            raise ValueError(
                f"cube has no dimension {dim!r}; dims are {self.dim_names}"
            ) from None

    def _check_alive(self) -> None:
        if self._deleted:
            raise RuntimeError(f"cube {self.cube_id} has been deleted")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def _resolve_server(cls, client) -> OphidiaServer:
        client = client or cls.client
        if client is None:
            raise RuntimeError(
                "no Ophidia client: pass client= or set cube.Cube.client"
            )
        return client.server

    @classmethod
    def importnc2(
        cls,
        src_paths: Sequence[str] | str,
        measure: str,
        client=None,
        concat_dim: str = "time",
        fragment_dim: str = "lat",
        nfrag: Optional[int] = None,
        description: str = "",
    ) -> "Cube":
        """Import a variable from one or more RNC files into a new cube.

        Multiple files concatenate along *concat_dim* (the daily-file
        pattern of the case study); the cube fragments along
        *fragment_dim* into *nfrag* pieces (default: one per I/O server).
        """
        server = cls._resolve_server(client)
        if isinstance(src_paths, str):
            src_paths = [src_paths]
        if not src_paths:
            raise ValueError("importnc2 needs at least one source path")

        with server.operation("oph_importnc2", measure=measure,
                              files=len(src_paths)):
            variables = server.map_fragments(
                lambda path: server.read_nc_variable(path, measure),
                list(src_paths),
            )
        first = variables[0]
        if len(variables) == 1:
            data = first.data
        else:
            axis = first.dims.index(concat_dim)
            data = np.concatenate([v.data for v in variables], axis=axis)

        dims = []
        for i, name in enumerate(first.dims):
            dims.append(DimensionInfo(name, data.shape[i]))
        server.log_operator(
            "oph_importnc2", measure=measure, files=len(src_paths),
            description=description,
        )
        return cls.from_array(
            data, dims=[d.name for d in dims], client=client,
            fragment_dim=fragment_dim, nfrag=nfrag, measure=measure,
            description=description,
        )

    @classmethod
    def from_array(
        cls,
        data: np.ndarray,
        dims: Sequence[str],
        client=None,
        fragment_dim: Optional[str] = None,
        nfrag: Optional[int] = None,
        measure: str = "measure",
        description: str = "",
    ) -> "Cube":
        """Create a cube from an in-memory array (a 'randcube' analogue)."""
        server = cls._resolve_server(client)
        data = np.asarray(data)
        if data.ndim != len(dims):
            raise ValueError(f"{data.ndim}-d array with {len(dims)} dims")
        if fragment_dim is None:
            fragment_dim = dims[-1]
        if fragment_dim not in dims:
            raise ValueError(f"fragment dim {fragment_dim!r} not in {dims}")
        if nfrag is None:
            nfrag = len(server.pool.servers)
        axis = list(dims).index(fragment_dim)
        size = data.shape[axis]
        nfrag = max(1, min(nfrag, size)) if size else 1

        bounds = np.linspace(0, size, nfrag + 1).astype(int)
        chunk_axis = _chunk_axis_for(dims, fragment_dim)
        refs = []
        for i in range(nfrag):
            start, stop = int(bounds[i]), int(bounds[i + 1])
            indexer = [slice(None)] * data.ndim
            indexer[axis] = slice(start, stop)
            fid = server.pool.store(
                np.ascontiguousarray(data[tuple(indexer)]),
                chunk_axis=chunk_axis,
            )
            refs.append(_FragmentRef(fid, start, stop))

        dim_infos = [DimensionInfo(name, data.shape[i]) for i, name in enumerate(dims)]
        return cls(server, dim_infos, fragment_dim, refs, measure, description)

    # ------------------------------------------------------------------
    # Lazy plan machinery
    # ------------------------------------------------------------------

    def _lazy_derive(
        self,
        step: _PlanStep,
        new_dims: Sequence[DimensionInfo],
        description: str,
        measure: Optional[str] = None,
    ) -> "Cube":
        """Defer *step*: return a plan cube chained onto this one."""
        with self._server.operation(step.op, cube_id=self.cube_id, lazy=True):
            return Cube(
                self._server, new_dims, self.fragment_dim, None,
                measure or self.measure, description, dict(self.metadata),
                plan_input=self, plan_step=step, bounds=self._bounds,
            )

    def _plan_chain(self) -> Tuple["Cube", List[Tuple["Cube", _PlanStep]]]:
        """Walk back to the concrete base; steps are returned base→self.

        Deleted plan cubes are walked *through*: deleting an
        unmaterialised intermediate frees nothing, so downstream
        consumers keep evaluating from the base sources (mirroring how
        eager pipelines delete intermediates without affecting already-
        derived cubes).
        """
        steps: List[Tuple[Cube, _PlanStep]] = []
        cube: Cube = self
        while cube._fragments is None:
            steps.append((cube, cube._plan_step))
            cube = cube._plan_input
        steps.reverse()
        return cube, steps

    def _resolved(self):
        with self._server._plan_lock:
            return self._resolved_locked()

    def _resolved_locked(self, reuse: bool = True, allow_prune: bool = True):
        """Resolve this cube's chain into ``(refs, stages, ops, prune)``.

        ``refs`` are the concrete base fragments; ``stages`` is the
        fused per-fragment chain as picklable kernel stages (empty when
        the cube is already concrete; see
        :mod:`repro.ophidia.kernels` for the stage protocol); ``ops``
        names the fused operators in execution order.  *reuse* enables
        materialise-on-reuse and eval counting; it is off while
        materialising a reused ancestor so one forced chain cannot
        cascade into materialising every intermediate below it.

        ``prune`` is a chunk-pruning plan for the chain's leading steps
        (None when the prefix is ineligible or *allow_prune* is off —
        operand chains replayed inside :func:`~repro.ophidia.kernels.
        stage_binop` must stay dense).  Steps the plan consumes are
        named in ``ops`` but get no stage; the sweep obtains their
        output from :meth:`~repro.ophidia.pruning.PredicatePrunePlan.
        load` instead of a plain fragment read.
        """
        base, steps = self._plan_chain()
        if base._deleted:
            raise RuntimeError(f"cube {base.cube_id} has been deleted")
        if reuse:
            for cube, _ in reversed(steps[:-1]):
                if (
                    cube._evals >= 1
                    and not cube._deleted
                    and cube._fragments is None
                ):
                    cube._materialize_locked(reason="reuse")
                    base, steps = self._plan_chain()
                    break
            for cube, _ in steps:
                cube._evals += 1
        if not steps:
            return base._fragments, [], [], None

        prune = None
        if allow_prune and self._server.prune:
            prune = compile_prune_plan(base, steps, self._bounds)
        consumed = prune.consumed if prune is not None else 0

        frag_axis = base._axis(base.fragment_dim)
        bounds = self._bounds
        stages: List[Callable[..., Tuple[np.ndarray, int]]] = []
        # Consumed steps execute inside the prune plan's loader; they
        # keep their place in the fused-op accounting (the sweep still
        # runs them, chunk-wise) but compile no kernel stage and
        # preload no operands.
        ops: List[str] = [step.op for _, step in steps[:consumed]]
        for _, step in steps[consumed:]:
            ops.append(step.op)
            if step.kind == "apply":
                _query, ast = step.params
                stages.append(partial(K.stage_apply, ast=ast))
            elif step.kind == "transform":
                (fn,) = step.params
                stages.append(partial(K.stage_transform, fn=fn))
            elif step.kind == "subset":
                s_axis, s_start, s_stop = step.params
                stages.append(
                    partial(K.stage_subset, axis=s_axis, start=s_start, stop=s_stop)
                )
            elif step.kind == "runlength":
                (r_axis,) = step.params
                stages.append(partial(K.stage_runlength, axis=r_axis))
            elif step.kind == "intercube":
                other, op_name = step.params
                if (
                    reuse
                    and other._fragments is None
                    and not other._deleted
                    and other._evals >= 1
                ):
                    # Shared operand (e.g. a baseline subset consumed by
                    # every year): materialise instead of re-streaming.
                    other._materialize_locked(reason="reuse")
                if other._deleted and other._fragments is not None:
                    raise RuntimeError(f"cube {other.cube_id} has been deleted")
                opool = other._server.pool
                aligned = (
                    other.fragment_dim == base.fragment_dim
                    and other._bounds == bounds
                )
                if aligned:
                    orefs, ostages, oops, _ = other._resolved_locked(
                        reuse=reuse, allow_prune=False
                    )
                    ops.extend(oops)
                    # Preload the operand's base fragments now: the stage
                    # itself then needs no storage-pool access and can run
                    # in a worker process.  Spilled operands stay cold —
                    # the handle hydrates inside whichever worker runs
                    # the stage.
                    operands = tuple(
                        opool.load_handle(ref.fragment_id) for ref in orefs
                    )
                    stages.append(
                        partial(
                            K.stage_binop, op_name=op_name,
                            operands=operands,
                            operand_stages=tuple(ostages),
                        )
                    )
                else:
                    other_full = other.to_array()
                    stages.append(
                        partial(
                            K.stage_binop_full, op_name=op_name,
                            full=other_full, frag_axis=frag_axis,
                            bounds=bounds,
                        )
                    )
            else:  # pragma: no cover - steps are built internally
                raise RuntimeError(f"unknown plan step kind {step.kind!r}")

        return base._fragments, stages, ops, prune

    def _run_kernel_sweep(
        self,
        ops: Sequence[str],
        refs: Sequence[_FragmentRef],
        stages: Sequence[Callable[..., Tuple[np.ndarray, int]]],
        n_metered: int,
        prune=None,
        indices: Optional[Sequence[int]] = None,
        **attrs: Any,
    ) -> List[np.ndarray]:
        """Execute a compiled kernel over *refs* on the server's backend.

        The first *n_metered* chain outputs count toward avoided
        materialisations (*n_metered* counts the whole fused chain,
        including any steps a *prune* plan consumed — the split between
        the plan's loader and the kernel happens here).  The process
        backend (when configured and the kernel pickles) receives
        preloaded input arrays — or cold-fragment spill handles, which
        hydrate inside the workers — and returns the accumulated
        avoided-bytes count alongside the results; the thread path
        meters through a shared :class:`_AvoidedMeter`.  Both flush the
        same counter, so the fusion metrics do not depend on the
        backend.

        *indices* carries the fragments' original positions when only a
        subset of a cube's fragments is swept (fragment-level subset
        pruning): intercube stages index their preloaded operands by
        fragment position, so positions must survive the selection.
        """
        plan_metered = 0
        kernel_metered = n_metered
        if prune is not None:
            plan_metered = min(prune.consumed, n_metered)
            kernel_metered = max(0, n_metered - prune.consumed)
        kernel = FragmentKernel(tuple(stages), kernel_metered)
        pool = self._server.pool
        meter = _AvoidedMeter()
        items = (
            list(zip(indices, refs)) if indices is not None
            else list(enumerate(refs))
        )
        if self._server.process_kernel_ready(kernel):
            if prune is not None:
                # The pruned prefix runs chunk-wise in the parent (the
                # thread pool parallelises across fragments); only the
                # surviving dense tail ships to the workers.
                def load_input(item):
                    i, ref = item
                    data, avoided = prune.load(ref, i, plan_metered)
                    meter.add(avoided)
                    return data

                inputs = self._server.map_fragments(load_input, items)
            else:
                inputs = [pool.load_handle(ref.fragment_id) for ref in refs]
            arrays, avoided = self._server.sweep_kernel(
                ops, kernel, inputs, indices=[i for i, _ in items],
                cube_id=self.cube_id, **attrs,
            )
            meter.add(avoided)
        else:

            def work(item):
                i, ref = item
                if prune is not None:
                    data, extra = prune.load(ref, i, plan_metered)
                    meter.add(extra)
                else:
                    data = pool.load_handle(ref.fragment_id)
                out, avoided = kernel.run(data, i)
                meter.add(avoided)
                return out

            arrays = self._server.sweep(
                ops, work, items, cube_id=self.cube_id, **attrs,
            )
        _flush_avoided(meter)
        return arrays

    def materialize(self) -> "Cube":
        """Force evaluation now, writing this cube's fragments to storage.

        No-op on a concrete cube.  Returns ``self`` so call sites can
        chain (``cube.materialize().exportnc2(...)``).
        """
        self._check_alive()
        with self._server._plan_lock:
            self._materialize_locked(reason="explicit")
        return self

    def _materialize_locked(self, reason: str) -> None:
        if self._fragments is not None:
            return
        refs, stages, ops, prune = self._resolved_locked(reuse=False)
        n_chain = len(stages) + (prune.consumed if prune is not None else 0)
        # The final chain output is about to be stored, so it does not
        # count as an avoided materialisation.
        arrays = self._run_kernel_sweep(
            ops + ["oph_materialize"], refs, stages,
            n_metered=max(0, n_chain - 1), prune=prune, reason=reason,
        )
        pool = self._server.pool
        chunk_axis = _chunk_axis_for(self.dim_names, self.fragment_dim)
        self._fragments = tuple(
            _FragmentRef(
                pool.store(np.ascontiguousarray(arr), chunk_axis=chunk_axis),
                start, stop,
            )
            for arr, (start, stop) in zip(arrays, self._bounds)
        )
        get_registry().counter(
            "ophidia_cubes_materialized_total",
            "Lazy cubes materialised to the storage pool",
            labels=("reason",),
        ).inc(reason=reason)
        self._server.log_operator(
            "oph_materialize", cube_id=self.cube_id, reason=reason
        )

    # ------------------------------------------------------------------
    # Core operators
    # ------------------------------------------------------------------

    def _derive(
        self,
        new_dims: Sequence[DimensionInfo],
        fragment_arrays: Sequence[np.ndarray],
        frag_bounds: Sequence[Tuple[int, int]],
        description: str,
        measure: Optional[str] = None,
        fragment_dim: Optional[str] = None,
    ) -> "Cube":
        chunk_axis = _chunk_axis_for(
            [d.name for d in new_dims], fragment_dim or self.fragment_dim
        )
        refs = [
            _FragmentRef(
                self._server.pool.store(arr, chunk_axis=chunk_axis), start, stop
            )
            for arr, (start, stop) in zip(fragment_arrays, frag_bounds)
        ]
        return Cube(
            self._server, new_dims, fragment_dim or self.fragment_dim, refs,
            measure or self.measure, description, dict(self.metadata),
        )

    def _consume(
        self,
        terminal_op: str,
        terminal_stage: Callable[..., Tuple[np.ndarray, int]],
        new_dims: Sequence[DimensionInfo],
        description: str,
        measure: Optional[str] = None,
    ) -> "Cube":
        """Run the fused chain plus *terminal_stage* in one sweep; store it.

        This is both the eager execution path (empty chain, single
        operator) and the lazy barrier path (the chain streams into the
        terminal operator without materialising intermediates).
        *terminal_stage* follows the kernel stage protocol
        (:mod:`repro.ophidia.kernels`); only the chain stages before it
        are metered as avoided materialisations.
        """
        refs, stages, ops, prune = self._resolved()
        n_chain = len(stages) + (prune.consumed if prune is not None else 0)
        arrays = self._run_kernel_sweep(
            ops + [terminal_op], refs, list(stages) + [terminal_stage],
            n_metered=n_chain, prune=prune,
        )
        return self._derive(new_dims, arrays, self._bounds, description, measure)

    def apply(self, query: str, description: str = "") -> "Cube":
        """Elementwise transform through an ``oph_*`` primitive expression."""
        self._check_alive()
        # Parse once per operator call — not per fragment — and surface
        # malformed queries at the call site even on the lazy path.
        ast = parse_primitive(query)
        self._server.log_operator("oph_apply", cube_id=self.cube_id, query=query)
        if self._server.lazy:
            return self._lazy_derive(
                _PlanStep("oph_apply", "apply", (query, ast)),
                self.dims, description,
            )
        return self._consume(
            "oph_apply", partial(K.stage_apply, ast=ast),
            self.dims, description,
        )

    def transform(
        self, fn: Callable[[np.ndarray], np.ndarray], description: str = ""
    ) -> "Cube":
        """Elementwise transform through an arbitrary shape-preserving callable."""
        self._check_alive()
        self._server.log_operator(
            "oph_transform", cube_id=self.cube_id, fn=getattr(fn, "__name__", "fn")
        )
        if self._server.lazy:
            return self._lazy_derive(
                _PlanStep("oph_transform", "transform", (fn,)),
                self.dims, description,
            )
        return self._consume(
            "oph_transform", partial(K.stage_transform, fn=fn),
            self.dims, description,
        )

    def reduce(
        self, operation: str, dim: str = "time", description: str = ""
    ) -> "Cube":
        """Collapse *dim* with *operation* (max/min/sum/mean/std/var)."""
        self._check_alive()
        reducer = _REDUCERS.get(operation)
        if reducer is None:
            raise ValueError(
                f"unknown reduce operation {operation!r}; expected {sorted(_REDUCERS)}"
            )
        axis = self._axis(dim)
        self._server.log_operator(
            "oph_reduce", cube_id=self.cube_id, operation=operation, dim=dim
        )
        new_dims = [d for d in self.dims if d.name != dim]

        if dim == self.fragment_dim:
            # Reducing along the fragmentation axis requires a gather.
            with self._server.operation("oph_reduce", cube_id=self.cube_id,
                                        gather=True):
                full = self.to_array()
            out = reducer(full, axis=axis) if full.size else np.zeros(
                tuple(d.size for d in new_dims)
            )
            new_fragment_dim = new_dims[-1].name if new_dims else None
            if new_fragment_dim is None:
                raise ValueError("cannot reduce the last remaining dimension")
            cube = Cube.from_array(
                out, [d.name for d in new_dims],
                client=_ServerClient(self._server),
                fragment_dim=new_fragment_dim, measure=self.measure,
                description=description,
            )
            cube.metadata.update(self.metadata)
            return cube

        return self._consume(
            "oph_reduce", partial(K.stage_reduce, op=operation, axis=axis),
            new_dims, description,
        )

    def reduce2(
        self,
        operation: str,
        dim: str,
        group_size: int,
        description: str = "",
    ) -> "Cube":
        """Grouped reduction: collapse *dim* in blocks of *group_size*.

        The Ophidia idiom for "daily → yearly" style aggregation: a cube
        with ``time=730`` and ``group_size=365`` yields ``time=2``.
        """
        self._check_alive()
        reducer = _REDUCERS.get(operation)
        if reducer is None:
            raise ValueError(f"unknown reduce operation {operation!r}")
        axis = self._axis(dim)
        size = self.dims[axis].size
        if group_size < 1 or size % group_size != 0:
            raise ValueError(
                f"group_size {group_size} must evenly divide dim {dim!r} (size {size})"
            )
        if dim == self.fragment_dim:
            raise ValueError("grouped reduction along the fragment dim is unsupported")
        n_groups = size // group_size
        self._server.log_operator(
            "oph_reduce2", cube_id=self.cube_id, operation=operation,
            dim=dim, group_size=group_size,
        )

        new_dims = [
            d if d.name != dim else d.with_size(n_groups) for d in self.dims
        ]
        return self._consume(
            "oph_reduce2",
            partial(
                K.stage_reduce2, op=operation, axis=axis,
                n_groups=n_groups, group_size=group_size,
            ),
            new_dims, description,
        )

    def intercube(
        self, other: "Cube", operation: str = "sub", description: str = ""
    ) -> "Cube":
        """Elementwise binary operation with another cube of identical dims."""
        self._check_alive()
        other._check_alive()
        op = _INTERCUBE_OPS.get(operation)
        if op is None:
            raise ValueError(
                f"unknown intercube operation {operation!r}; "
                f"expected {sorted(_INTERCUBE_OPS)}"
            )
        if self.dim_names != other.dim_names or self.shape != other.shape:
            raise ValueError(
                f"intercube dim mismatch: {self.dim_names}{self.shape} vs "
                f"{other.dim_names}{other.shape}"
            )
        self._server.log_operator(
            "oph_intercube", cube_id=self.cube_id, other=other.cube_id,
            operation=operation,
        )
        if self._server.lazy:
            return self._lazy_derive(
                _PlanStep("oph_intercube", "intercube", (other, operation)),
                self.dims, description,
            )
        aligned = (
            other.fragment_dim == self.fragment_dim
            and other._bounds == self._bounds
        )
        axis = self._axis(self.fragment_dim)
        if aligned:
            opool = other._server.pool
            operands = tuple(
                opool.load(ref.fragment_id) for ref in other._fragments
            )
            stage = partial(
                K.stage_binop, op_name=operation,
                operands=operands, operand_stages=(),
            )
        else:
            stage = partial(
                K.stage_binop_full, op_name=operation,
                full=other.to_array(), frag_axis=axis, bounds=self._bounds,
            )
        return self._consume("oph_intercube", stage, self.dims, description)

    def subset(self, dim: str, start: int, stop: int, description: str = "") -> "Cube":
        """Slice ``[start, stop)`` along *dim* (index space)."""
        self._check_alive()
        axis = self._axis(dim)
        size = self.dims[axis].size
        start, stop = max(0, start), min(size, stop)
        if start >= stop:
            raise ValueError(f"empty subset [{start}, {stop}) on dim {dim!r}")
        self._server.log_operator(
            "oph_subset", cube_id=self.cube_id, dim=dim, start=start, stop=stop
        )

        if dim == self.fragment_dim:
            # Subsetting along the fragmentation axis re-fragments, so
            # it is a gather — but the fragment bounds tell us which
            # fragments can contribute at all.  Only overlapping
            # fragments are swept/read; skipped ones count as pruned.
            # Slicing each surviving part locally and concatenating is
            # byte-identical to gathering everything and slicing once.
            bounds = self._bounds
            keep = [
                i for i, (s, e) in enumerate(bounds)
                if e > start and s < stop
            ]
            if len(keep) < len(bounds):
                get_registry().counter(
                    "ophidia_fragments_pruned_total",
                    "Whole fragments skipped via fragment-bound pruning",
                ).inc(len(bounds) - len(keep))
            refs, stages, ops, prune = self._resolved()
            sel_refs = [refs[i] for i in keep]
            if ops:
                n_chain = len(stages) + (
                    prune.consumed if prune is not None else 0
                )
                parts = self._run_kernel_sweep(
                    ops, sel_refs, stages, n_metered=n_chain,
                    prune=prune, indices=keep,
                )
            else:
                pool = self._server.pool
                parts = self._server.map_fragments(
                    lambda ref: pool.load(ref.fragment_id), sel_refs
                )
            sliced = []
            for i, arr in zip(keep, parts):
                s, e = bounds[i]
                lo, hi = max(start, s) - s, min(stop, e) - s
                if lo > 0 or hi < e - s:
                    indexer = [slice(None)] * arr.ndim
                    indexer[axis] = slice(lo, hi)
                    arr = arr[tuple(indexer)]
                sliced.append(arr)
            out = (
                sliced[0] if len(sliced) == 1
                else np.concatenate(sliced, axis=axis)
            )
            cube = Cube.from_array(
                out, list(self.dim_names), client=_ServerClient(self._server),
                fragment_dim=self.fragment_dim, nfrag=self.nfrag,
                measure=self.measure, description=description,
            )
            cube.metadata.update(self.metadata)
            return cube

        new_dims = [
            d if d.name != dim else d.with_size(stop - start) for d in self.dims
        ]
        if self._server.lazy:
            return self._lazy_derive(
                _PlanStep("oph_subset", "subset", (axis, start, stop)),
                new_dims, description,
            )

        return self._consume(
            "oph_subset",
            partial(K.stage_subset, axis=axis, start=start, stop=stop),
            new_dims, description,
        )

    def runlength(self, dim: str = "time", description: str = "") -> "Cube":
        """Lengths of completed runs of positive values along *dim*.

        For every position, the output is the length of the consecutive
        run of ``> 0`` input values that *ends* at that position (the
        next element breaks the run or the axis ends), else 0.  This is
        the duration cube of the paper's heat/cold-wave pipelines: a
        follow-up ``oph_predicate('x','>=6',...)`` + ``reduce`` extracts
        the indices.
        """
        self._check_alive()
        if dim == self.fragment_dim:
            raise ValueError("runlength along the fragment dim is unsupported")
        axis = self._axis(dim)
        self._server.log_operator("oph_runlength", cube_id=self.cube_id, dim=dim)
        if self._server.lazy:
            return self._lazy_derive(
                _PlanStep("oph_runlength", "runlength", (axis,)),
                self.dims, description,
            )
        return self._consume(
            "oph_runlength", partial(K.stage_runlength, axis=axis),
            self.dims, description,
        )

    def merge(self, description: str = "") -> "Cube":
        """Collapse to a single fragment (Ophidia's OPH_MERGE)."""
        self._check_alive()
        self._server.log_operator("oph_merge", cube_id=self.cube_id)
        with self._server.operation("oph_merge", cube_id=self.cube_id):
            full = self.to_array()
        cube = Cube.from_array(
            full, list(self.dim_names), client=_ServerClient(self._server),
            fragment_dim=self.fragment_dim, nfrag=1, measure=self.measure,
            description=description or self.description,
        )
        cube.metadata.update(self.metadata)
        return cube

    # ------------------------------------------------------------------
    # Materialisation / export / lifecycle
    # ------------------------------------------------------------------

    def to_array(self) -> np.ndarray:
        """Gather all fragments into one in-memory array (client sync).

        On a plan cube this is a forced-evaluation point: the fused
        chain streams into the gather without writing any fragments.
        """
        self._check_alive()
        axis = self._axis(self.fragment_dim)
        if self._fragments is not None:
            parts = self._server.map_fragments(
                lambda ref: self._server.pool.load(ref.fragment_id),
                self._fragments,
            )
        else:
            refs, stages, ops, prune = self._resolved()
            if ops:
                n_chain = len(stages) + (
                    prune.consumed if prune is not None else 0
                )
                parts = self._run_kernel_sweep(
                    ops, refs, stages, n_metered=n_chain, prune=prune
                )
            else:
                pool = self._server.pool
                parts = self._server.map_fragments(
                    lambda ref: pool.load(ref.fragment_id), refs
                )
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts, axis=axis)

    def exportnc2(self, output_path: str, output_name: str) -> str:
        """Write the cube as an RNC dataset; returns the file's path."""
        self._check_alive()
        with self._server.operation("oph_exportnc2", cube_id=self.cube_id):
            data = self.to_array()
        ds = Dataset(
            {
                "measure": self.measure,
                "description": self.description,
                **{f"meta_{k}": v for k, v in self.metadata.items()
                   if isinstance(v, (str, int, float, bool))},
            }
        )
        ds.create_variable(self.measure, data, self.dim_names)
        for d in self.dims:
            if d.coords is not None:
                ds.create_variable(d.name, np.asarray(d.coords), (d.name,))
        path = f"{output_path.rstrip('/')}/{output_name}.rnc"
        self._server.write_nc_dataset(path, ds)
        self._server.log_operator(
            "oph_exportnc2", cube_id=self.cube_id, path=path
        )
        return path

    def delete(self) -> None:
        """Free the cube's fragments from the I/O servers (idempotent).

        Deleting an unmaterialised plan cube frees nothing (there are no
        fragments) but still marks the cube deleted for direct use;
        downstream plan cubes keep evaluating through it from the base
        sources.  A previously materialised plan cube reverts to its
        plan for the same reason.
        """
        if self._deleted:
            return
        if self._fragments is not None:
            self._server.pool.delete_many([r.fragment_id for r in self._fragments])
            if self._plan_step is not None:
                self._fragments = None
        self._server.log_operator("oph_delete", cube_id=self.cube_id)
        self._deleted = True

    # -- metadata --------------------------------------------------------

    def addmeta(self, key: str, value: Any) -> None:
        self.metadata[key] = value

    def getmeta(self, key: str) -> Any:
        return self.metadata[key]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        dims = ", ".join(f"{d.name}={d.size}" for d in self.dims)
        lazy = " lazy" if self._fragments is None else ""
        return (
            f"<Cube {self.cube_id} {self.measure}[{dims}] nfrag={self.nfrag}"
            f"{lazy} {self.description!r}>"
        )


class _ServerClient:
    """Minimal client shim so cube-internal operators can build cubes."""

    def __init__(self, server: OphidiaServer) -> None:
        self.server = server


# Historical home of the run-length kernel; now in
# :mod:`repro.ophidia.kernels`.
_run_lengths = K.run_lengths
