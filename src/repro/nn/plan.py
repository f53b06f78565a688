"""Trace-and-replay compiled execution plans for repeated-shape batches.

Serving traffic is shape-repetitive: the engine runs the same
``(method, batch_shape)`` micro-batch thousands of times, yet the tape
re-records parent links and backward closures and re-allocates every
forward/VJP intermediate on each batch.  This module kills that cost for
the hot path, HIPS-autograd-style: run the batch **once** under
instrumentation (:func:`trace`), record every primitive (op name, input
slots, shape, dtype, VJP metadata) into an :class:`ExecutionPlan`, then
:meth:`ExecutionPlan.replay` re-executes with *no Tensor objects, no
tape, no per-batch closures* — every step is a precompiled callable
writing into a preallocated per-plan buffer arena (``out=`` for GEMMs
and elementwise ufuncs, adjacent elementwise chains fused into a single
shared buffer).

Pipeline
--------
``trace(build_fn)`` installs a thread-local hook inside
:meth:`Tensor._make`, runs ``build_fn(tracer)`` under ``no_grad`` (the
trace needs op metadata, not closures) and hands the recorded program to
:class:`ExecutionPlan`, which compiles it in five passes:

1. **const folding** — ops whose inputs are all constants (weights,
   biases, positional embeddings) collapse to baked arrays; parameter
   leaves are referenced zero-copy so in-place ``load_state_dict``
   updates propagate, while *computed* folds (e.g. batch-norm's
   ``running_var + eps``) are baked at trace time.
2. **dead-op pruning** — anything not an ancestor of a declared output,
   gradient target, or the loss is dropped (e.g. an unused head).
3. **demand-driven backward scheduling** — gradients are computed only
   for slots lying on a path from a requested gradient target to the
   loss; weight-gradient work is skipped at compile time, making
   ``nn.frozen`` unnecessary inside planned cores.
4. **elementwise fusion** — a single-consumer elementwise intermediate
   whose value no VJP reads shares its consumer's output buffer, so a
   chain like batch-norm's ``(x - mu) / std * w + b`` runs in one
   buffer with in-place ufuncs.
5. **arena allocation** — one persistent ndarray per surviving slot
   and gradient, plus one step-scratch region per plan: the buffers a
   single step fills and reads (conv patch matrices, conv-VJP gradient
   windows, elementwise temporaries) are views into it, sized for the
   largest step.  ``arena_bytes`` totals the persistent buffers and
   counts the region once.

Once compiled, a plan holds nothing of its trace: the recorded forward
values and tensors are released, and const folds keep only their own
arrays.

Shape/dtype mismatches at replay raise :class:`PlanMismatch`; primitives
with no compiled kernel raise :class:`PlanUnsupported` at trace/compile
time.  Both are caught by the serving layer's PlanCache, which falls
back to tape execution and counts the event.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .tensor import Tensor, _set_trace_hook, _unbroadcast, no_grad


class PlanUnsupported(RuntimeError):
    """The traced computation cannot be compiled into a plan."""


class PlanMismatch(RuntimeError):
    """Replay inputs do not match the shapes/dtypes the plan was
    compiled for."""


class _Slot:
    """One value in the traced program: an input, a constant, or an op
    result.  ``array`` is the fixed arena buffer (or const/view array)
    bound at compile time."""

    __slots__ = ("idx", "shape", "dtype", "kind", "array", "producer",
                 "name")

    def __init__(self, idx, shape, dtype, kind):
        self.idx = idx
        self.shape = tuple(shape)
        self.dtype = np.dtype(dtype)
        self.kind = kind            # "input" | "const" | "op"
        self.array: Optional[np.ndarray] = None
        self.producer = None
        self.name: Optional[str] = None

    def __repr__(self):
        return (f"_Slot({self.idx}, {self.kind}, {self.shape}, "
                f"{self.dtype})")


class _Op:
    """One recorded primitive application."""

    __slots__ = ("op", "out", "ins", "meta", "out_data", "scratch")

    def __init__(self, op, out, ins, meta, out_data):
        self.op = op
        self.out = out
        self.ins = ins              # tuple[_Slot]
        self.meta = meta            # dict
        self.out_data = out_data    # traced forward value (for folding)
        self.scratch = {}           # kernel-private preallocated buffers


class Tracer:
    """Records one instrumented forward pass into slots + op records.

    Strong references are kept to every traced Tensor (``_keepalive``)
    while tracing: CPython reuses ``id()`` after garbage collection, so
    letting interim tensors die mid-trace would alias distinct values
    onto one slot.  The compiled plan keeps none of them.
    """

    def __init__(self):
        self.slots: List[_Slot] = []
        self.records: List[_Op] = []
        self._by_id: Dict[int, _Slot] = {}
        #: id -> (array, slot) of every aux input
        self._aux_arrays: Dict[int, Tuple[np.ndarray, _Slot]] = {}
        self._keepalive: list = []
        self.inputs: Dict[str, _Slot] = {}
        self.outputs: Dict[str, _Slot] = {}
        self.grad_outputs: Dict[str, _Slot] = {}
        self.loss_slot: Optional[_Slot] = None

    # -- declaration API used by plan cores ----------------------------
    def input(self, name: str, array: np.ndarray) -> Tensor:
        """Declare a replayable tensor input; returns the Tensor to feed
        the traced computation."""
        arr = np.ascontiguousarray(array)
        t = Tensor(arr)
        slot = self._new_slot(arr.shape, arr.dtype, "input")
        slot.name = name
        self.inputs[name] = slot
        self._by_id[id(t)] = slot
        self._keepalive.append(t)
        return t

    def aux_input(self, name: str, array: np.ndarray) -> np.ndarray:
        """Declare a replayable *raw ndarray* input consumed through op
        metadata (e.g. the label vector of ``class_score_sum``).  Feed
        the returned array — it is identity-matched during recording.

        Only op metadata may read it.  An array the computation uses as
        a tensor (wrapped in ``Tensor`` for arithmetic) must be declared
        with :meth:`input`: the plan bakes every tensor not declared, so
        replay would use the trace batch's value.  Tracing raises
        :class:`PlanUnsupported` for a tensor that shares memory with an
        aux array; a converted copy (``Tensor`` casts integer arrays to
        float) cannot be told from any other constant.
        """
        arr = np.ascontiguousarray(array)
        slot = self._new_slot(arr.shape, arr.dtype, "input")
        slot.name = name
        self.inputs[name] = slot
        self._aux_arrays[id(arr)] = (arr, slot)
        return arr

    def output(self, name: str, tensor: Tensor) -> None:
        """Declare a forward value to surface from each replay."""
        self.outputs[name] = self._slot_of(tensor)

    def grad(self, name: str, tensor: Tensor) -> None:
        """Request the gradient of the loss w.r.t. ``tensor``."""
        self.grad_outputs[name] = self._slot_of(tensor)

    def loss(self, tensor: Tensor) -> None:
        """Declare the scalar the backward sweep seeds from."""
        if tensor.data.size != 1:
            raise PlanUnsupported("plan loss must be a scalar")
        self.loss_slot = self._slot_of(tensor)

    # -- recording hook (called from Tensor._make) ---------------------
    def record(self, op, out, parents, meta) -> None:
        if op is None:
            raise PlanUnsupported(
                "traced computation used a primitive with no symbolic "
                "op name")
        ins = tuple(self._slot_of(p) for p in parents)
        out_slot = self._new_slot(out.shape, out.dtype, "op")
        rec = _Op(op, out_slot, ins, dict(meta) if meta else {}, out.data)
        out_slot.producer = rec
        self.records.append(rec)
        self._by_id[id(out)] = out_slot
        self._keepalive.append(out)
        # Metadata ndarrays that were declared as aux inputs become slot
        # references (replay-swappable); anything else stays baked.
        for key, value in list(rec.meta.items()):
            if isinstance(value, np.ndarray):
                aux = self._aux_arrays.get(id(value))
                rec.meta[key + "_slot"] = None if aux is None else aux[1]

    # -- internals -----------------------------------------------------
    def _new_slot(self, shape, dtype, kind) -> _Slot:
        slot = _Slot(len(self.slots), shape, dtype, kind)
        self.slots.append(slot)
        return slot

    def _slot_of(self, t: Tensor) -> _Slot:
        slot = self._by_id.get(id(t))
        if slot is None:
            # A tensor created outside the trace (weight, bias, constant
            # built by a layer): a const leaf referencing its data
            # zero-copy, so in-place parameter updates propagate.  An
            # aux input must never become one: replay would ignore it.
            for arr, aux in self._aux_arrays.values():
                if np.may_share_memory(t.data, arr):
                    raise PlanUnsupported(
                        f"aux input {aux.name!r} is used as a tensor; "
                        "declare it with tracer.input so replay feeds "
                        "it instead of baking the trace batch's value")
            slot = self._new_slot(t.shape, t.dtype, "const")
            slot.array = t.data
            self._by_id[id(t)] = slot
            self._keepalive.append(t)
        return slot


def trace(build_fn: Callable[[Tracer], None]) -> "ExecutionPlan":
    """Run ``build_fn(tracer)`` once under instrumentation and compile
    the recording into an :class:`ExecutionPlan`.

    ``build_fn`` declares inputs via ``tracer.input``/``aux_input``,
    runs the computation on the returned tensors, and declares
    ``output``/``grad``/``loss``.  Raises :class:`PlanUnsupported` when
    any traced primitive has no compiled kernel.
    """
    tracer = Tracer()
    _set_trace_hook(tracer)
    try:
        with no_grad():
            build_fn(tracer)
    finally:
        _set_trace_hook(None)
    if tracer.grad_outputs and tracer.loss_slot is None:
        raise PlanUnsupported("gradient outputs requested without a loss")
    if not tracer.outputs and not tracer.grad_outputs:
        raise PlanUnsupported("plan declares no outputs")
    return ExecutionPlan(tracer)


#: Elementwise ops whose compiled kernels tolerate ``out=`` aliasing an
#: input — the fusion pass may collapse chains of these onto one buffer.
_FUSABLE = frozenset({
    "add", "sub", "mul", "div", "neg", "exp", "log", "sqrt", "abs",
    "tanh", "sigmoid", "relu", "leaky_relu", "clip", "pow",
})

_VIEW_OPS = frozenset({"reshape", "transpose", "getitem"})


#: Byte alignment of a buffer placed past the start of the scratch
#: region.
_ALIGN = 64


def _nbytes(shape, dtype) -> int:
    return int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize


def _aligned(nbytes: int) -> int:
    return -(-nbytes // _ALIGN) * _ALIGN


def _conv_cols_shape(rec: "_Op") -> Tuple[int, ...]:
    """A traced conv's forward patch matrix: ``(n, c*k*k, oh*ow)``."""
    n, c = rec.ins[0].shape[:2]
    k = rec.ins[1].shape[2]
    return (n, c * k * k, rec.out.shape[2] * rec.out.shape[3])


def _conv_dx_scratch_shapes(rec: "_Op"):
    """The scratch of a traced conv's input-gradient step: the matrix
    its GEMM reads or writes, then the add-mode temporary placed past
    it.  The temporary is ``None`` on the GEMM + col2im path, whose
    result is a fresh array the step adds directly."""
    from .functional import _input_grad_gathers
    n, c, h, wd = rec.ins[0].shape
    c_out, _, k, _ = rec.ins[1].shape
    if not _input_grad_gathers(k, rec.meta["stride"], rec.meta["padding"]):
        return _conv_cols_shape(rec), None
    return (n, c_out * k * k, h * wd), (n, c, h, wd)


def _is_basic_index(index) -> bool:
    items = index if isinstance(index, tuple) else (index,)
    return all(isinstance(it, (int, np.integer, slice, type(None),
                               type(Ellipsis))) for it in items)


class ExecutionPlan:
    """A compiled trace: fixed buffers plus a flat list of step
    callables (forward then backward), re-executable via :meth:`replay`.

    Constants reference parameter arrays zero-copy; *computed* constant
    folds (and any non-parameter arrays a layer builds per call) are
    baked at trace time, so a plan assumes model weights change only via
    in-place ``load_state_dict``-style updates between replays.
    """

    def __init__(self, tracer: Tracer):
        self.inputs = tracer.inputs
        self.outputs = tracer.outputs
        self.grad_outputs = tracer.grad_outputs
        self.loss_slot = tracer.loss_slot
        self.arena_bytes = 0
        self.folded_ops = 0
        self.pruned_ops = 0
        self.fused_slots = 0
        self._steps: List[Callable[[], None]] = []
        self._grad_buffers: Dict[_Slot, np.ndarray] = {}
        self._records: List[_Op] = []
        self._needs: set = set()
        self._scratch_region = np.empty(0, dtype=np.uint8)
        self._compile(tracer.records)
        # Free the trace.  Several step closures hold their record, so
        # the traced values are cleared rather than the list dropped;
        # const folds keep their arrays through ``slot.array``.
        for rec in tracer.records:
            rec.out_data = None

    # -- compilation ---------------------------------------------------
    def _alloc(self, shape, dtype) -> np.ndarray:
        buf = np.empty(shape, dtype=dtype)
        self.arena_bytes += buf.nbytes
        return buf

    def _scratch(self, shape, dtype, offset: int = 0) -> np.ndarray:
        """A buffer that one step fills and reads before any other step
        runs: a view of the plan's shared step-scratch region at byte
        ``offset``, so its contents never outlive the step.  A request
        the region was not sized for gets a private buffer instead."""
        nbytes = _nbytes(shape, dtype)
        if offset + nbytes > self._scratch_region.nbytes:
            return self._alloc(shape, dtype)
        return self._scratch_region[offset:offset + nbytes].view(
            dtype).reshape(shape)

    def _compile(self, records: List[_Op]) -> None:
        # 1. const folding: ops with all-const inputs bake their traced
        # value (a zero-copy view of parameter data for pure view ops).
        live_records: List[_Op] = []
        for rec in records:
            if all(s.kind == "const" for s in rec.ins):
                rec.out.kind = "const"
                rec.out.array = rec.out_data
                self.folded_ops += 1
            else:
                live_records.append(rec)
        records = live_records

        # 2. dead-op pruning: keep ancestors of declared outputs, grad
        # targets, and the loss.
        live = set()
        for slot in self.outputs.values():
            live.add(slot)
        for slot in self.grad_outputs.values():
            live.add(slot)
        if self.loss_slot is not None:
            live.add(self.loss_slot)
        kept: List[_Op] = []
        for rec in reversed(records):
            if rec.out in live:
                kept.append(rec)
                live.update(rec.ins)
            else:
                self.pruned_ops += 1
        records = list(reversed(kept))
        self._records = records

        # 3. demand-driven backward scheduling: grad needed at a slot
        # iff it lies on a path from a grad target to the loss.
        targets = set(self.grad_outputs.values())
        needs: set = set()
        backward_recs: List[_Op] = []
        if targets and self.loss_slot is not None:
            anc = {self.loss_slot}
            for rec in reversed(records):
                if rec.out in anc:
                    anc.update(rec.ins)
            desc = set(targets)
            for rec in records:
                if any(s in desc for s in rec.ins):
                    desc.add(rec.out)
            needs = (anc & desc) | {self.loss_slot}
            needs.update(targets)
            backward_recs = [rec for rec in records
                             if rec.out in needs
                             and any(s in needs for s in rec.ins)]
        self._needs = needs

        # 4. value-needed analysis feeding the fusion pass: a slot whose
        # forward value any VJP (or the caller) reads must keep its own
        # buffer.
        value_needed = set(self.outputs.values())
        if self.loss_slot is not None:
            value_needed.add(self.loss_slot)
        for rec in backward_recs:
            reqs = _VJP_VALUE_REQS.get(rec.op)
            if reqs is None:
                raise PlanUnsupported(
                    f"no VJP compiled for traced op {rec.op!r}")
            value_needed.update(reqs(rec))

        # 5a. buffer allocation for non-view op outputs, in reverse
        # order so an elementwise chain can alias one input per op onto
        # its consumer's buffer (fusion).
        consumers: Dict[_Slot, int] = {}
        for rec in records:
            for s in rec.ins:
                consumers[s] = consumers.get(s, 0) + 1
        for rec in reversed(records):
            if rec.op in _VIEW_OPS:
                continue
            out = rec.out
            if out.array is None:
                out.array = self._alloc(out.shape, out.dtype)
            if rec.op not in _FUSABLE:
                continue
            for s in rec.ins:
                if (s.kind == "op" and s.array is None
                        and s.producer is not None
                        and s.producer.op in _FUSABLE
                        and consumers.get(s, 0) == 1
                        and s not in value_needed
                        and s not in targets
                        and s.shape == out.shape
                        and s.dtype == out.dtype):
                    s.array = out.array
                    self.fused_slots += 1
                    break                 # one aliased input per op

        # 5b. input buffers (replay copies arrive here), then view
        # binding in forward order (views of views resolve left to
        # right).
        for slot in self.inputs.values():
            slot.array = self._alloc(slot.shape, slot.dtype)
        for rec in records:
            if rec.op in _VIEW_OPS and rec.out.array is None:
                view = _build_view(rec)
                # Non-viewable (e.g. reshape of a transposed view,
                # advanced indexing): fall back to a buffer + copy step.
                rec.out.array = view if view is not None \
                    else self._alloc(rec.out.shape, rec.out.dtype)

        # 5c. the step-scratch region, sized for the largest step that
        # uses it (see _scratch; an undersized region costs memory, never
        # correctness).
        sizes = [0]
        for rec in records:
            if rec.op == "conv2d" and rec.ins[1] not in needs:
                sizes.append(_nbytes(_conv_cols_shape(rec), rec.out.dtype))
            elif rec.op == "leaky_relu":
                sizes.append(_nbytes(rec.out.shape, rec.out.dtype))
        for rec in backward_recs:
            if rec.op == "conv2d" and rec.ins[0] in needs:
                win, tmp = _conv_dx_scratch_shapes(rec)
                size = _nbytes(win, rec.out.dtype)
                if tmp is not None:
                    size = _aligned(size) + _nbytes(tmp, rec.out.dtype)
                sizes.append(size)
        self._scratch_region = self._alloc(max(sizes), np.uint8)

        # 6. forward steps.
        for rec in records:
            if rec.op in _VIEW_OPS \
                    and np.may_share_memory(rec.out.array,
                                            rec.ins[0].array):
                continue                  # pure view: zero replay cost
            builder = _FORWARD_BUILDERS.get(rec.op)
            if builder is None:
                raise PlanUnsupported(
                    f"no forward kernel compiled for traced op {rec.op!r}")
            step = builder(rec, self)
            if step is not None:
                self._steps.append(step)

        # 7. backward steps: grad buffers + per-contribution set/add
        # modes, swept in reverse op order.
        if backward_recs:
            for slot in needs:
                if slot is self.loss_slot:
                    buf = self._alloc(slot.shape, slot.dtype)
                    buf[...] = 1.0        # seed; nothing ever writes it
                else:
                    buf = self._alloc(slot.shape, slot.dtype)
                self._grad_buffers[slot] = buf
            written: set = set()
            contributed: set = set()
            for rec in reversed(backward_recs):
                vjp = _VJP_BUILDERS.get(rec.op)
                if vjp is None:
                    raise PlanUnsupported(
                        f"no VJP compiled for traced op {rec.op!r}")
                for in_slot, make_step in vjp(rec, self):
                    if in_slot not in needs:
                        continue
                    mode = "add" if in_slot in written else "set"
                    written.add(in_slot)
                    contributed.add(in_slot)
                    self._steps.append(make_step(mode))
            # A target off the loss path receives no contributions: its
            # gradient is identically zero, baked once.
            for slot in needs:
                if slot is not self.loss_slot and slot not in contributed:
                    self._grad_buffers[slot].fill(0.0)

    # -- execution -----------------------------------------------------
    def replay(self, inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Re-execute the plan on new inputs.

        Returns a dict of declared outputs (``output`` names map to
        forward values, ``grad`` names to gradients).  The returned
        arrays are *views into the plan's arena* — valid until the next
        replay; copy them to retain.
        """
        for name, slot in self.inputs.items():
            arr = inputs.get(name)
            if arr is None:
                raise PlanMismatch(f"replay missing input {name!r}")
            arr = np.asarray(arr)
            if arr.shape != slot.shape:
                raise PlanMismatch(
                    f"input {name!r} shape {arr.shape} != compiled "
                    f"{slot.shape}")
            if arr.dtype != slot.dtype:
                raise PlanMismatch(
                    f"input {name!r} dtype {arr.dtype} != compiled "
                    f"{slot.dtype}")
            np.copyto(slot.array, arr)
        for step in self._steps:
            step()
        out: Dict[str, np.ndarray] = {}
        for name, slot in self.outputs.items():
            out[name] = slot.array
        for name, slot in self.grad_outputs.items():
            out[name] = self._grad_buffers[slot]
        return out

    @property
    def n_steps(self) -> int:
        return len(self._steps)


# ----------------------------------------------------------------------
# view binding
# ----------------------------------------------------------------------
def _build_view(rec: _Op) -> Optional[np.ndarray]:
    """Bind a view op's output directly onto its input's fixed array.

    Returns ``None`` when numpy cannot express the result as a view
    (reshape of a non-contiguous view, advanced indexing); the caller
    then falls back to a preallocated buffer plus a per-replay copy.
    """
    a = rec.ins[0].array
    if rec.op == "transpose":
        return a.transpose(rec.meta["axes"])
    if rec.op == "reshape":
        try:
            v = a.reshape(rec.out.shape)
        except ValueError:
            return None
        return v if np.may_share_memory(v, a) else None
    if rec.op == "getitem":
        index = rec.meta["index"]
        if _is_basic_index(index):
            return a[index]
        return None
    return None


# ----------------------------------------------------------------------
# gradient-contribution helper
# ----------------------------------------------------------------------
def _emit(plan: ExecutionPlan, slot: _Slot, compute: Callable,
          fast_set: Optional[Callable] = None):
    """Build a ``make_step(mode)`` factory accumulating ``compute()``
    into ``slot``'s gradient buffer.

    ``compute`` returns the raw contribution (any broadcast-compatible
    shape); a *larger* result is un-broadcast (summed) down to the slot
    shape, a smaller one broadcasts up.  ``fast_set`` — when given and
    the contribution shape matches exactly — writes straight into the
    buffer with ``out=`` for the first (set-mode) contribution.
    """
    shape = slot.shape

    def _fit(c: np.ndarray) -> np.ndarray:
        if c.shape == shape:
            return c
        try:
            if np.broadcast_shapes(c.shape, shape) == shape:
                return c                  # broadcasts up inside copyto/add
        except ValueError:
            pass
        return _unbroadcast(c, shape)

    def make_step(mode: str):
        target = plan._grad_buffers[slot]
        if mode == "set":
            if fast_set is not None:
                return lambda: fast_set(target)

            def step():
                np.copyto(target, _fit(compute()))
            return step

        def step():
            c = _fit(compute())
            np.add(target, c, out=target)
        return step

    return make_step


# ----------------------------------------------------------------------
# forward kernels
# ----------------------------------------------------------------------
def _fw_ufunc2(ufunc):
    def build(rec, plan):
        a, b = rec.ins[0].array, rec.ins[1].array
        o = rec.out.array
        return lambda: ufunc(a, b, out=o)
    return build


def _fw_ufunc1(ufunc):
    def build(rec, plan):
        a, o = rec.ins[0].array, rec.out.array
        return lambda: ufunc(a, out=o)
    return build


def _fw_clone(rec, plan):
    a, o = rec.ins[0].array, rec.out.array
    return lambda: np.copyto(o, a)


def _fw_pow(rec, plan):
    a, o = rec.ins[0].array, rec.out.array
    exponent = rec.meta["exponent"]
    return lambda: np.power(a, exponent, out=o)


def _fw_sigmoid(rec, plan):
    a, o = rec.ins[0].array, rec.out.array

    def step():
        np.negative(a, out=o)
        np.exp(o, out=o)
        np.add(o, 1.0, out=o)
        np.divide(1.0, o, out=o)
    return step


def _fw_relu(rec, plan):
    a, o = rec.ins[0].array, rec.out.array
    return lambda: np.maximum(a, 0.0, out=o)


def _fw_leaky_relu(rec, plan):
    a, o = rec.ins[0].array, rec.out.array
    slope = rec.meta["slope"]
    if 0.0 < slope < 1.0:
        # max(x, slope*x) == leaky-relu for slopes in (0, 1); two
        # in-place ufuncs, one scratch.
        tmp = plan._scratch(rec.out.shape, rec.out.dtype)

        def step():
            np.multiply(a, slope, out=tmp)
            np.maximum(a, tmp, out=o)
        return step

    def step():
        np.multiply(a, slope, out=o)
        np.copyto(o, a, where=a > 0)
    return step


def _fw_clip(rec, plan):
    a, o = rec.ins[0].array, rec.out.array
    low, high = rec.meta["low"], rec.meta["high"]
    return lambda: np.clip(a, low, high, out=o)


def _fw_sum(rec, plan):
    a, o = rec.ins[0].array, rec.out.array
    axis, keep = rec.meta["axis"], rec.meta["keepdims"]
    return lambda: np.sum(a, axis=axis, keepdims=keep, out=o)


def _fw_max(rec, plan):
    a, o = rec.ins[0].array, rec.out.array
    axis, keep = rec.meta["axis"], rec.meta["keepdims"]
    return lambda: np.amax(a, axis=axis, keepdims=keep, out=o)


def _fw_matmul(rec, plan):
    a, b = rec.ins[0].array, rec.ins[1].array
    o = rec.out.array
    return lambda: np.matmul(a, b, out=o)


def _fw_reshape(rec, plan):
    # Copy fallback (non-viewable source): the output buffer viewed in
    # the *input's* shape copies elementwise in C order == reshape.
    a = rec.ins[0].array
    o_view = rec.out.array.reshape(rec.ins[0].shape)
    return lambda: np.copyto(o_view, a)


def _fw_transpose(rec, plan):
    a, o = rec.ins[0].array, rec.out.array
    axes = rec.meta["axes"]
    return lambda: np.copyto(o, a.transpose(axes))


def _fw_getitem(rec, plan):
    a, o = rec.ins[0].array, rec.out.array
    index = rec.meta["index"]
    return lambda: np.copyto(o, a[index])


def _fw_pad2d(rec, plan):
    a, o = rec.ins[0].array, rec.out.array
    p = rec.meta["padding"]
    o.fill(0.0)                           # border stays zero forever
    nd = len(rec.out.shape)
    interior = o[tuple([slice(None)] * (nd - 2) + [slice(p, -p)] * 2)]
    return lambda: np.copyto(interior, a)


def _fw_concat(rec, plan):
    axis = rec.meta["axis"]
    o = rec.out.array
    pairs = []
    start = 0
    for s in rec.ins:
        size = s.shape[axis]
        slicer = [slice(None)] * len(rec.out.shape)
        slicer[axis] = slice(start, start + size)
        pairs.append((o[tuple(slicer)], s.array))
        start += size

    def step():
        for view, src in pairs:
            np.copyto(view, src)
    return step


def _fw_stack(rec, plan):
    axis = rec.meta["axis"]
    o = rec.out.array
    pairs = []
    for i, s in enumerate(rec.ins):
        slicer = [slice(None)] * len(rec.out.shape)
        slicer[axis] = i
        pairs.append((o[tuple(slicer)], s.array))

    def step():
        for view, src in pairs:
            np.copyto(view, src)
    return step


def _fw_upsample(rec, plan):
    scale = rec.meta["scale"]
    a, o = rec.ins[0].array, rec.out.array
    n, c, h, w = rec.ins[0].shape
    o6 = o.reshape(n, c, h, scale, w, scale)
    a6 = a[:, :, :, np.newaxis, :, np.newaxis]   # view at any stride
    return lambda: np.copyto(o6, a6)


def _fw_softmax(rec, plan):
    a, o = rec.ins[0].array, rec.out.array
    axis = rec.meta["axis"]

    def step():
        np.subtract(a, a.max(axis=axis, keepdims=True), out=o)
        np.exp(o, out=o)
        np.divide(o, o.sum(axis=axis, keepdims=True), out=o)
    return step


def _fw_log_softmax(rec, plan):
    a, o = rec.ins[0].array, rec.out.array
    axis = rec.meta["axis"]

    def step():
        np.subtract(a, a.max(axis=axis, keepdims=True), out=o)
        lse = np.log(np.exp(o).sum(axis=axis, keepdims=True))
        np.subtract(o, lse, out=o)
    return step


def _css_labels(rec, plan):
    slot = rec.meta.get("labels_slot")
    if slot is None:
        raise PlanUnsupported(
            "class_score_sum labels were not declared as a plan input "
            "(tracer.aux_input); baking them would freeze the targets")
    return slot.array


def _fw_class_score_sum(rec, plan):
    x, o = rec.ins[0].array, rec.out.array
    labels = _css_labels(rec, plan)
    rows = np.arange(rec.ins[0].shape[0])

    def step():
        o[()] = x[rows, labels].sum()
    return step


def _fw_conv2d(rec, plan):
    x, w = rec.ins[0], rec.ins[1]
    bias = rec.ins[2] if len(rec.ins) == 3 else None
    stride, padding = rec.meta["stride"], rec.meta["padding"]
    n, c, h, wd = x.shape
    c_out, _, k, _ = w.shape
    oh, ow = rec.out.shape[2:]

    w2d = w.array.reshape(c_out, -1)
    if not np.may_share_memory(w2d, w.array):
        raise PlanUnsupported("conv2d weight is not viewable as 2-D")
    if padding > 0:
        pbuf = plan._alloc((n, c, h + 2 * padding, wd + 2 * padding),
                           x.dtype)
        pbuf.fill(0.0)
        interior = pbuf[:, :, padding:-padding, padding:-padding]
        src = pbuf
    else:
        interior = None
        src = x.array
    s0, s1, s2, s3 = src.strides
    windows = np.lib.stride_tricks.as_strided(
        src, shape=(n, c, oh, ow, k, k),
        strides=(s0, s1, s2 * stride, s3 * stride, s2, s3),
        writeable=False).transpose(0, 1, 4, 5, 2, 3)
    # The weight VJP reads cols again in the backward sweep: only a conv
    # whose weight gradient is not needed may put them in step scratch.
    cols = (plan._alloc if w in plan._needs else plan._scratch)(
        _conv_cols_shape(rec), x.dtype)
    cols6 = cols.reshape(n, c, k, k, oh, ow)
    o = rec.out.array
    o3 = o.reshape(n, c_out, oh * ow)
    bview = None if bias is None \
        else bias.array.reshape(1, c_out, 1, 1)
    rec.scratch["cols"] = cols
    x_arr = x.array

    def step():
        if interior is not None:
            np.copyto(interior, x_arr)
        np.copyto(cols6, windows)
        np.matmul(w2d, cols, out=o3)
        if bview is not None:
            np.add(o, bview, out=o)
    return step


def _fw_avg_pool2d(rec, plan):
    from .functional import im2col
    kernel, stride = rec.meta["kernel"], rec.meta["stride"]
    x, o = rec.ins[0], rec.out.array
    n, c, h, w = x.shape
    x_arr = x.array

    def step():
        cols = im2col(x_arr.reshape(n * c, 1, h, w), kernel, stride, 0)
        np.copyto(o, cols.mean(axis=1).reshape(rec.out.shape))
    return step


def _fw_max_pool2d(rec, plan):
    from .functional import im2col
    kernel, stride = rec.meta["kernel"], rec.meta["stride"]
    x, o = rec.ins[0], rec.out.array
    n, c, h, w = x.shape
    x_arr = x.array

    def step():
        cols = im2col(x_arr.reshape(n * c, 1, h, w), kernel, stride, 0)
        argmax = cols.argmax(axis=1)
        rec.scratch["cols"] = cols
        rec.scratch["argmax"] = argmax
        picked = np.take_along_axis(cols, argmax[:, None, :], axis=1)
        np.copyto(o, picked[:, 0, :].reshape(rec.out.shape))
    return step


_FORWARD_BUILDERS: Dict[str, Callable] = {
    "add": _fw_ufunc2(np.add),
    "sub": _fw_ufunc2(np.subtract),
    "mul": _fw_ufunc2(np.multiply),
    "div": _fw_ufunc2(np.divide),
    "neg": _fw_ufunc1(np.negative),
    "exp": _fw_ufunc1(np.exp),
    "log": _fw_ufunc1(np.log),
    "sqrt": _fw_ufunc1(np.sqrt),
    "abs": _fw_ufunc1(np.absolute),
    "tanh": _fw_ufunc1(np.tanh),
    "sigmoid": _fw_sigmoid,
    "relu": _fw_relu,
    "leaky_relu": _fw_leaky_relu,
    "clip": _fw_clip,
    "pow": _fw_pow,
    "clone": _fw_clone,
    "sum": _fw_sum,
    "max": _fw_max,
    "matmul": _fw_matmul,
    "reshape": _fw_reshape,
    "transpose": _fw_transpose,
    "getitem": _fw_getitem,
    "pad2d": _fw_pad2d,
    "concat": _fw_concat,
    "stack": _fw_stack,
    "upsample2d": _fw_upsample,
    "softmax": _fw_softmax,
    "log_softmax": _fw_log_softmax,
    "class_score_sum": _fw_class_score_sum,
    "conv2d": _fw_conv2d,
    "avg_pool2d": _fw_avg_pool2d,
    "max_pool2d": _fw_max_pool2d,
}



# ----------------------------------------------------------------------
# VJP builders: (rec, plan) -> [(input_slot, make_step(mode)), ...]
# ----------------------------------------------------------------------
def _vjp_add(rec, plan):
    g = plan._grad_buffers[rec.out]
    return [(s, _emit(plan, s, lambda: g)) for s in rec.ins]


def _vjp_sub(rec, plan):
    g = plan._grad_buffers[rec.out]
    return [(rec.ins[0], _emit(plan, rec.ins[0], lambda: g)),
            (rec.ins[1], _emit(plan, rec.ins[1],
                               lambda: np.negative(g)))]


def _vjp_neg(rec, plan):
    g = plan._grad_buffers[rec.out]
    return [(rec.ins[0], _emit(plan, rec.ins[0],
                               lambda: np.negative(g)))]


def _vjp_clone(rec, plan):
    g = plan._grad_buffers[rec.out]
    return [(rec.ins[0], _emit(plan, rec.ins[0], lambda: g))]


def _vjp_mul(rec, plan):
    g = plan._grad_buffers[rec.out]
    a, b = rec.ins[0], rec.ins[1]
    out = []
    fast_a = (lambda t: np.multiply(g, b.array, out=t)) \
        if a.shape == rec.out.shape else None
    fast_b = (lambda t: np.multiply(g, a.array, out=t)) \
        if b.shape == rec.out.shape else None
    out.append((a, _emit(plan, a, lambda: g * b.array, fast_set=fast_a)))
    out.append((b, _emit(plan, b, lambda: g * a.array, fast_set=fast_b)))
    return out


def _vjp_div(rec, plan):
    g = plan._grad_buffers[rec.out]
    a, b = rec.ins[0], rec.ins[1]
    fast_a = (lambda t: np.divide(g, b.array, out=t)) \
        if a.shape == rec.out.shape else None
    return [
        (a, _emit(plan, a, lambda: g / b.array, fast_set=fast_a)),
        (b, _emit(plan, b,
                  lambda: -g * a.array / (b.array ** 2))),
    ]


def _vjp_pow(rec, plan):
    g = plan._grad_buffers[rec.out]
    a = rec.ins[0]
    e = rec.meta["exponent"]
    return [(a, _emit(plan, a, lambda: g * e * a.array ** (e - 1)))]


def _vjp_exp(rec, plan):
    g = plan._grad_buffers[rec.out]
    o = rec.out.array
    return [(rec.ins[0], _emit(plan, rec.ins[0], lambda: g * o))]


def _vjp_log(rec, plan):
    g = plan._grad_buffers[rec.out]
    a = rec.ins[0]
    return [(a, _emit(plan, a, lambda: g / a.array))]


def _vjp_sqrt(rec, plan):
    g = plan._grad_buffers[rec.out]
    o = rec.out.array
    return [(rec.ins[0], _emit(
        plan, rec.ins[0], lambda: g * 0.5 / np.maximum(o, 1e-12)))]


def _vjp_abs(rec, plan):
    g = plan._grad_buffers[rec.out]
    a = rec.ins[0]
    return [(a, _emit(plan, a, lambda: g * np.sign(a.array)))]


def _vjp_tanh(rec, plan):
    g = plan._grad_buffers[rec.out]
    o = rec.out.array
    return [(rec.ins[0], _emit(plan, rec.ins[0],
                               lambda: g * (1.0 - o ** 2)))]


def _vjp_sigmoid(rec, plan):
    g = plan._grad_buffers[rec.out]
    o = rec.out.array
    return [(rec.ins[0], _emit(plan, rec.ins[0],
                               lambda: g * o * (1.0 - o)))]


def _vjp_relu(rec, plan):
    g = plan._grad_buffers[rec.out]
    o = rec.out.array
    s = rec.ins[0]
    fast = (lambda t: np.multiply(g, o > 0, out=t)) \
        if s.shape == rec.out.shape else None
    return [(s, _emit(plan, s, lambda: g * (o > 0), fast_set=fast))]


def _vjp_leaky_relu(rec, plan):
    g = plan._grad_buffers[rec.out]
    o = rec.out.array
    slope = rec.meta["slope"]
    return [(rec.ins[0], _emit(plan, rec.ins[0],
                               lambda: np.where(o > 0, g, g * slope)))]


def _vjp_clip(rec, plan):
    g = plan._grad_buffers[rec.out]
    a = rec.ins[0]
    low, high = rec.meta["low"], rec.meta["high"]
    return [(a, _emit(plan, a,
                      lambda: g * ((a.array > low) & (a.array < high))))]


def _vjp_sum(rec, plan):
    g = plan._grad_buffers[rec.out]
    axis, keep = rec.meta["axis"], rec.meta["keepdims"]
    if axis is None or keep:
        compute = lambda: g
    else:
        compute = lambda: np.expand_dims(g, axis)
    return [(rec.ins[0], _emit(plan, rec.ins[0], compute))]


def _vjp_max(rec, plan):
    g = plan._grad_buffers[rec.out]
    o = rec.out.array
    a = rec.ins[0]
    axis, keep = rec.meta["axis"], rec.meta["keepdims"]

    def compute():
        gg, oo = g, o
        if axis is not None and not keep:
            gg = np.expand_dims(g, axis)
            oo = np.expand_dims(o, axis)
        mask = (a.array == oo)
        counts = mask.sum(axis=axis, keepdims=True) if axis is not None \
            else mask.sum()
        return mask * gg / counts
    return [(a, _emit(plan, a, compute))]


def _vjp_reshape(rec, plan):
    g = plan._grad_buffers[rec.out]
    shape = rec.ins[0].shape
    return [(rec.ins[0], _emit(plan, rec.ins[0],
                               lambda: g.reshape(shape)))]


def _vjp_transpose(rec, plan):
    g = plan._grad_buffers[rec.out]
    inverse = tuple(np.argsort(rec.meta["axes"]))
    return [(rec.ins[0], _emit(plan, rec.ins[0],
                               lambda: g.transpose(inverse)))]


def _vjp_pad2d(rec, plan):
    g = plan._grad_buffers[rec.out]
    p = rec.meta["padding"]
    nd = len(rec.out.shape)
    sl = tuple([slice(None)] * (nd - 2) + [slice(p, -p)] * 2)
    return [(rec.ins[0], _emit(plan, rec.ins[0], lambda: g[sl]))]


def _vjp_concat(rec, plan):
    g = plan._grad_buffers[rec.out]
    axis = rec.meta["axis"]
    out = []
    start = 0
    for s in rec.ins:
        slicer = [slice(None)] * len(rec.out.shape)
        slicer[axis] = slice(start, start + s.shape[axis])
        view = g[tuple(slicer)]
        out.append((s, _emit(plan, s, (lambda v: lambda: v)(view))))
        start += s.shape[axis]
    return out


def _vjp_stack(rec, plan):
    g = plan._grad_buffers[rec.out]
    axis = rec.meta["axis"]
    out = []
    for i, s in enumerate(rec.ins):
        slicer = [slice(None)] * len(rec.out.shape)
        slicer[axis] = i
        view = g[tuple(slicer)]
        out.append((s, _emit(plan, s, (lambda v: lambda: v)(view))))
    return out


def _vjp_matmul(rec, plan):
    g = plan._grad_buffers[rec.out]
    a, b = rec.ins[0], rec.ins[1]
    bT = np.swapaxes(b.array, -1, -2)
    aT = np.swapaxes(a.array, -1, -2)

    def _mm_shape(lhs, rhs):
        try:
            batch = np.broadcast_shapes(lhs[:-2], rhs[:-2])
        except ValueError:
            return None
        return batch + (lhs[-2], rhs[-1])

    fast_a = (lambda t: np.matmul(g, bT, out=t)) \
        if _mm_shape(rec.out.shape, bT.shape) == a.shape else None
    fast_b = (lambda t: np.matmul(aT, g, out=t)) \
        if _mm_shape(aT.shape, rec.out.shape) == b.shape else None
    return [
        (a, _emit(plan, a, lambda: np.matmul(g, bT), fast_set=fast_a)),
        (b, _emit(plan, b, lambda: np.matmul(aT, g), fast_set=fast_b)),
    ]


def _vjp_upsample(rec, plan):
    g = plan._grad_buffers[rec.out]
    scale = rec.meta["scale"]
    n, c, h, w = rec.ins[0].shape
    g6 = g.reshape(n, c, h, scale, w, scale)
    return [(rec.ins[0], _emit(plan, rec.ins[0],
                               lambda: g6.sum(axis=(3, 5))))]


def _vjp_softmax(rec, plan):
    g = plan._grad_buffers[rec.out]
    o = rec.out.array
    axis = rec.meta["axis"]

    def compute():
        inner = (g * o).sum(axis=axis, keepdims=True)
        return o * (g - inner)
    return [(rec.ins[0], _emit(plan, rec.ins[0], compute))]


def _vjp_log_softmax(rec, plan):
    g = plan._grad_buffers[rec.out]
    o = rec.out.array
    axis = rec.meta["axis"]

    def compute():
        return g - np.exp(o) * g.sum(axis=axis, keepdims=True)
    return [(rec.ins[0], _emit(plan, rec.ins[0], compute))]


def _vjp_class_score_sum(rec, plan):
    g = plan._grad_buffers[rec.out]            # 0-d, seeded with 1.0
    logits = rec.ins[0]
    labels = _css_labels(rec, plan)
    rows = np.arange(rec.ins[0].shape[0])

    def make_step(mode):
        target = plan._grad_buffers[logits]
        if mode == "set":
            def step():
                target.fill(0.0)
                target[rows, labels] = g[()]
            return step

        def step():
            target[rows, labels] += g[()]
        return step
    return [(logits, make_step)]


def _vjp_conv2d(rec, plan):
    from .functional import conv2d_input_grad
    g = plan._grad_buffers[rec.out]
    x, w = rec.ins[0], rec.ins[1]
    stride, padding = rec.meta["stride"], rec.meta["padding"]
    n, c, h, wd = x.shape
    c_out, _, k, _ = w.shape
    g2d = g.reshape(n, c_out, -1)
    cols = rec.scratch["cols"]
    out = []

    def make_x(mode):
        target = plan._grad_buffers[x]
        cols_shape, tmp_shape = _conv_dx_scratch_shapes(rec)
        gcols = plan._scratch(cols_shape, g.dtype)
        gpad = tmp = None
        if tmp_shape is not None:
            # The padded gradient persists in the arena: only its
            # interior is rewritten per replay, so its zero border is
            # baked once here.  The windows and the add-mode temporary
            # are step scratch.
            gpad = plan._alloc((n, c_out, h + k - 1, wd + k - 1), g.dtype)
            gpad.fill(0.0)
            tmp = plan._scratch(tmp_shape, g.dtype,
                                offset=_aligned(gcols.nbytes))

        def dx(into):
            return conv2d_input_grad(g, w.array, x.shape, stride, padding,
                                     out=into, gpad=gpad, cols=gcols)

        if mode == "set":
            return lambda: dx(target)
        return lambda: np.add(target, dx(tmp), out=target)
    out.append((x, make_x))

    def w_compute():
        gw = np.matmul(g2d, cols.transpose(0, 2, 1)).sum(axis=0)
        return gw.reshape(w.shape)
    out.append((w, _emit(plan, w, w_compute)))

    if len(rec.ins) == 3:
        bias = rec.ins[2]
        out.append((bias, _emit(plan, bias,
                                lambda: g.sum(axis=(0, 2, 3)))))
    return out


def _vjp_avg_pool2d(rec, plan):
    from .functional import col2im
    g = plan._grad_buffers[rec.out]
    kernel, stride = rec.meta["kernel"], rec.meta["stride"]
    x = rec.ins[0]
    n, c, h, w = x.shape

    def compute():
        gr = g.reshape(n * c, 1, -1)
        gcols = np.repeat(gr, kernel * kernel, axis=1) / (kernel * kernel)
        return col2im(gcols, (n * c, 1, h, w), kernel, stride,
                      0).reshape(x.shape)
    return [(x, _emit(plan, x, compute))]


def _vjp_max_pool2d(rec, plan):
    from .functional import col2im
    g = plan._grad_buffers[rec.out]
    kernel, stride = rec.meta["kernel"], rec.meta["stride"]
    x = rec.ins[0]
    n, c, h, w = x.shape

    def compute():
        cols = rec.scratch["cols"]
        argmax = rec.scratch["argmax"]
        gr = g.reshape(n * c, -1)
        gcols = np.zeros_like(cols)
        np.put_along_axis(gcols, argmax[:, None, :], gr[:, None, :],
                          axis=1)
        return col2im(gcols, (n * c, 1, h, w), kernel, stride,
                      0).reshape(x.shape)
    return [(x, _emit(plan, x, compute))]


_VJP_BUILDERS: Dict[str, Callable] = {
    "add": _vjp_add,
    "sub": _vjp_sub,
    "neg": _vjp_neg,
    "clone": _vjp_clone,
    "mul": _vjp_mul,
    "div": _vjp_div,
    "pow": _vjp_pow,
    "exp": _vjp_exp,
    "log": _vjp_log,
    "sqrt": _vjp_sqrt,
    "abs": _vjp_abs,
    "tanh": _vjp_tanh,
    "sigmoid": _vjp_sigmoid,
    "relu": _vjp_relu,
    "leaky_relu": _vjp_leaky_relu,
    "clip": _vjp_clip,
    "sum": _vjp_sum,
    "max": _vjp_max,
    "reshape": _vjp_reshape,
    "transpose": _vjp_transpose,
    "pad2d": _vjp_pad2d,
    "concat": _vjp_concat,
    "stack": _vjp_stack,
    "matmul": _vjp_matmul,
    "upsample2d": _vjp_upsample,
    "softmax": _vjp_softmax,
    "log_softmax": _vjp_log_softmax,
    "class_score_sum": _vjp_class_score_sum,
    "conv2d": _vjp_conv2d,
    "avg_pool2d": _vjp_avg_pool2d,
    "max_pool2d": _vjp_max_pool2d,
    # "getitem" has no VJP: its tape backward is a scatter-add whose
    # compiled form would not beat the tape; gradient cores avoid it.
}


#: Which slots' forward *values* each VJP reads at backward time.  The
#: fusion pass must not collapse these onto shared buffers.
_VJP_VALUE_REQS: Dict[str, Callable] = {
    "add": lambda rec: (),
    "sub": lambda rec: (),
    "neg": lambda rec: (),
    "clone": lambda rec: (),
    "mul": lambda rec: rec.ins,
    "div": lambda rec: rec.ins,
    "pow": lambda rec: (rec.ins[0],),
    "exp": lambda rec: (rec.out,),
    "log": lambda rec: (rec.ins[0],),
    "sqrt": lambda rec: (rec.out,),
    "abs": lambda rec: (rec.ins[0],),
    "tanh": lambda rec: (rec.out,),
    "sigmoid": lambda rec: (rec.out,),
    "relu": lambda rec: (rec.out,),
    "leaky_relu": lambda rec: (rec.out,),
    "clip": lambda rec: (rec.ins[0],),
    "sum": lambda rec: (),
    "max": lambda rec: (rec.ins[0], rec.out),
    "reshape": lambda rec: (),
    "transpose": lambda rec: (),
    "pad2d": lambda rec: (),
    "concat": lambda rec: (),
    "stack": lambda rec: (),
    "matmul": lambda rec: rec.ins,
    "upsample2d": lambda rec: (),
    "softmax": lambda rec: (rec.out,),
    "log_softmax": lambda rec: (rec.out,),
    "class_score_sum": lambda rec: (),
    "conv2d": lambda rec: rec.ins[1:],
    "avg_pool2d": lambda rec: (),
    "max_pool2d": lambda rec: (rec.ins[0],),
}
