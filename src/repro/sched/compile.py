"""Compiler: lower a validated schedule to executable rank programs.

One task walk (:func:`_walk`) serves both substrates; each backend
supplies only its receive and send:

* **cooperative** (:func:`lower_rank`): the two-plane ``yield "F"`` /
  ``yield "B"`` protocol driven by :func:`pump_planes` — a static
  schedule must receive the *specific* expected message, so forward and
  backward traffic use separate inboxes (two MPI tags).  Because the
  builders attach each receive immediately before and each send
  immediately after its compute task, compiled 1F1B/GPipe reproduce the
  retired hand-written flushing trainer's losses, weights and recorded
  trace event order (frozen as golden values in the tests).

* **process** (:func:`_sched_worker` + :meth:`ScheduledPipelineTrainer`
  with ``backend="process"``): a module-level worker program per rank
  over :class:`~repro.runtime.parallel.ProcessTransport`'s single-FIFO
  ``yield RECV`` protocol.  Real rings deliver in arrival order, which
  is nondeterministic in wall time, so the worker reorders through a
  small stash keyed by (tag, microbatch); numerics are unchanged, so
  losses and weights stay bit-identical to the cooperative run while
  the *receive* timestamps legitimately differ.

``W`` tasks are ordering-only on the functional substrate: the numpy
autograd computes input and weight gradients together inside ``BWD``,
so a split schedule executes the full backward there and ``W`` marks
the point where the weight gradient is *scheduled* to materialize.  The
DES (:mod:`repro.sched.des`) prices the two halves separately — that is
where zero-bubble's benefit is measured.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Optional, Tuple, Union

import numpy as np

from ..nn import AdamW, GPTConfig
from ..runtime.grid import RankGrid
from ..runtime.stage import PipelineStage
from ..runtime.transport import RECV, RankTransport
from .builders import SCHEDULE_NAMES, build_schedule, schedule_chunks
from .ir import (BWD, FWD, RECV_ACT, RECV_GRAD, SEND_ACT, SEND_GRAD,
                 Schedule, validate)

__all__ = ["lower_rank", "plane_tag", "pump_planes",
           "ScheduledPipelineTrainer"]


def plane_tag(schedule: Schedule, plane: str, stage: int) -> str:
    """Wire tag for a message into virtual ``stage`` on ``plane``.

    The cooperative substrate always uses the bare plane ("F"/"B") — the
    plane *is* the inbox, and single-chunk tags stay the bare planes the
    recorded golden traces carry.  The process substrate shares one FIFO
    per channel, so multi-chunk schedules qualify the tag with the
    receiving virtual stage to keep stash keys unambiguous.
    """
    if schedule.n_chunks == 1:
        return plane
    return f"{plane}@{stage}"


def _walk(schedule: Schedule, grid: RankGrid, rank: int,
          stages: Dict[int, object],
          microbatches: List[Tuple[np.ndarray, np.ndarray]],
          total_microbatches: int,
          recv: Callable[[str, int, int], Generator],
          send: Callable[[int, str, int, int, object], None]
          ) -> Generator:
    """The one task walk: execute ``rank``'s program order.

    ``recv(plane, v, mb)`` is a generator returning the payload for
    virtual stage ``v`` (it yields whatever the backend's wait protocol
    needs); ``send(dst, plane, v, mb, data)`` ships a payload to rank
    ``dst`` for its virtual stage ``v``.  ``stages`` maps virtual stage
    -> stage object for the stages this rank owns (symbolic stages work
    too — the model checker lowers the very same way).
    """
    i, j = grid.coord_of(rank)
    last = schedule.n_virtual - 1
    divisor = float(total_microbatches)
    held: Dict[Tuple[str, int, int], object] = {}
    for task in schedule.rank_order[i]:
        v, mb = task.stage, task.mb
        if task.kind == RECV_ACT:
            held[("act", v, mb)] = yield from recv("F", v, mb)
        elif task.kind == RECV_GRAD:
            held[("grad", v, mb)] = yield from recv("B", v, mb)
        elif task.kind == FWD:
            if v == 0:
                data = microbatches[mb][0]
            elif schedule.crosses(v - 1):
                data = held.pop(("act", v, mb))
            else:  # same-rank boundary: local handoff
                data = held.pop(("out", v - 1, mb))
            stage = stages[v]
            if v == last:
                stage.forward(mb, data, targets=microbatches[mb][1],
                              loss_divisor=divisor)
            else:
                held[("out", v, mb)] = stage.forward(mb, data)
        elif task.kind == SEND_ACT:
            dst = grid.rank_of(schedule.placement(v + 1), j)
            send(dst, "F", v + 1, mb, held.pop(("out", v, mb)))
        elif task.kind == BWD:
            if v == last:
                grad = None
            elif schedule.crosses(v):
                grad = held.pop(("grad", v, mb))
            else:
                grad = held.pop(("gin", v + 1, mb))
            grad_in = stages[v].backward(mb, grad)
            if v > 0:
                held[("gin", v, mb)] = grad_in
        elif task.kind == SEND_GRAD:
            dst = grid.rank_of(schedule.placement(v - 1), j)
            send(dst, "B", v - 1, mb, held.pop(("gin", v, mb)))
        # W: ordering-only here (see module docstring); the weight
        # gradient was materialized by the stage's full backward.


def lower_rank(schedule: Schedule, grid: RankGrid, rank: int,
               stages: Dict[int, object],
               fwd_net, bwd_net,
               microbatches: List[Tuple[np.ndarray, np.ndarray]],
               total_microbatches: int) -> Generator:
    """One rank's program under the cooperative two-plane protocol.

    ``fwd_net``/``bwd_net`` need only ``send``; yields are ``"F"``/``"B"``
    plane waits resumed with the matching packet (see
    :func:`pump_planes`).
    """
    def recv(plane: str, _v: int, _mb: int) -> Generator:
        pkt = yield plane
        return pkt.data

    def send(dst: int, plane: str, _v: int, mb: int, data) -> None:
        net = fwd_net if plane == "F" else bwd_net
        net.send(rank, dst, plane, mb, data)

    return _walk(schedule, grid, rank, stages, microbatches,
                 total_microbatches, recv, send)


def pump_planes(fwd_net: RankTransport, bwd_net: RankTransport,
                programs: Dict[int, Generator]) -> None:
    """Drive cooperative rank programs with *tag-aware* receives.

    A rank program yields ``"F"`` or ``"B"`` to wait for the next
    message of that tag; the pump pops from the matching transport
    plane only.  (A message-driven scheduler would take whichever
    arrives first — the structural difference between AxoNN and the
    flushing baselines, here in executable form.)
    """
    live = dict(programs)
    started = {r: False for r in live}
    waiting: Dict[int, str] = {}

    def try_pop(rank, tag):
        net = fwd_net if tag == "F" else bwd_net
        if net.inboxes[rank]:
            pkt = net.inboxes[rank].popleft()
            if net.recorder is not None:
                net.recorder.record_recv(rank, pkt.src, pkt.tag,
                                         pkt.microbatch)
            return pkt
        return None

    while live:
        progressed = False
        for rank in sorted(live):
            gen = live.get(rank)
            if gen is None:
                continue
            while True:
                if not started[rank]:
                    try:
                        request = next(gen)
                        started[rank] = True
                    except StopIteration:
                        del live[rank]
                        progressed = True
                        break
                elif rank in waiting:
                    pkt = try_pop(rank, waiting[rank])
                    if pkt is None:
                        break
                    del waiting[rank]
                    try:
                        request = gen.send(pkt)
                    except StopIteration:
                        del live[rank]
                        progressed = True
                        break
                else:
                    break
                if request not in ("F", "B"):
                    raise RuntimeError(
                        "rank programs may only yield 'F' or 'B'")
                waiting[rank] = request
                progressed = True
        if live and not progressed:
            raise RuntimeError(
                f"flushing pipeline deadlocked; stuck ranks: "
                f"{sorted(live)}"
            )


class ScheduledPipelineTrainer:
    """Static-schedule hybrid-parallel trainer: any valid IR schedule.

    Megatron-LM and DeepSpeed run *pipelining with flushing* on a static
    schedule (paper Section VIII); ``"1f1b"``/``"gpipe"`` execute exactly
    that with real numerics, on the same :class:`PipelineStage` shards as
    :class:`~repro.runtime.AxoNNTrainer`.  Flushing preserves strict
    optimizer semantics, so losses coincide with AxoNN's and the serial
    reference.  The schedule is *data*: pass a shipped schedule name
    ("axonn", "1f1b", "gpipe", "interleaved", "zb-h1") or a validated
    :class:`~repro.sched.ir.Schedule` instance (e.g. a search winner).
    Virtual chunks build one :class:`PipelineStage` per virtual stage
    (``n_virtual`` must not exceed the model's layer count).

    ``backend="process"`` runs each rank program in its own OS process
    over shared-memory rings; the parent stays the parameter master and
    applies gradients, so results are bit-identical to the cooperative
    backend (dropout must be 0 there — workers are stateless per batch
    and cannot carry the RNG streams across batches).
    """

    def __init__(self, cfg: GPTConfig, g_inter: int, g_data: int = 1,
                 microbatch_size: int = 1, lr: float = 1e-3,
                 betas: Tuple[float, float] = (0.9, 0.999),
                 weight_decay: float = 0.01,
                 schedule: Union[str, Schedule] = "1f1b",
                 checkpoint_activations: bool = False, recorder=None,
                 backend: str = "cooperative"):
        if microbatch_size < 1:
            raise ValueError("microbatch_size must be >= 1")
        if backend not in ("cooperative", "process"):
            raise ValueError(f"unknown backend {backend!r}")
        self.cfg = cfg
        self.grid = RankGrid(g_inter, g_data)
        self.microbatch_size = microbatch_size
        self.recorder = recorder
        self.backend = backend
        self.checkpoint_activations = checkpoint_activations
        if isinstance(schedule, Schedule):
            validate(schedule)
            if schedule.n_stages != g_inter:
                raise ValueError(
                    f"schedule {schedule.name!r} is built for "
                    f"{schedule.n_stages} stages, trainer has {g_inter}")
            self.schedule_name = schedule.name
            self._fixed_schedule: Optional[Schedule] = schedule
            self.n_virtual = schedule.n_virtual
        else:
            self.schedule_name = schedule
            self._fixed_schedule = None
            if schedule not in SCHEDULE_NAMES:
                raise ValueError(
                    f"unknown schedule {schedule!r}; shipped: "
                    f"{', '.join(SCHEDULE_NAMES)}")
            self.n_virtual = schedule_chunks(schedule) * g_inter
        if backend == "process" and cfg.dropout > 0:
            raise ValueError(
                "process backend needs dropout=0.0 (stateless workers "
                "cannot carry dropout RNG streams across batches)")
        self._schedule_cache: Dict[int, Schedule] = {}
        #: stages keyed by (virtual stage, data-parallel column)
        self.stages: Dict[Tuple[int, int], PipelineStage] = {}
        self.optimizers: Dict[int, AdamW] = {}
        for rank in range(self.grid.world_size):
            i, j = self.grid.coord_of(rank)
            params = []
            for v in range(self.n_virtual):
                if v % g_inter != i:
                    continue
                stage = PipelineStage(
                    cfg, v, self.n_virtual,
                    checkpoint_activations=checkpoint_activations)
                self.stages[(v, j)] = stage
                params.extend(stage.parameters())
            self.optimizers[rank] = AdamW(params, lr=lr, betas=betas,
                                          weight_decay=weight_decay)
        self.batches_trained = 0
        self._transport = None

    # ------------------------------------------------------------------
    def _schedule_for(self, m: int) -> Schedule:
        if self._fixed_schedule is not None:
            if self._fixed_schedule.n_microbatches != m:
                raise ValueError(
                    f"schedule {self.schedule_name!r} is built for "
                    f"{self._fixed_schedule.n_microbatches} microbatches "
                    f"per shard, this batch has {m}")
            return self._fixed_schedule
        sched = self._schedule_cache.get(m)
        if sched is None:
            sched = build_schedule(self.schedule_name, self.grid.g_inter, m)
            self._schedule_cache[m] = sched
        return sched

    def _rank_stages(self, rank: int) -> Dict[int, PipelineStage]:
        i, j = self.grid.coord_of(rank)
        return {v: self.stages[(v, j)] for v in range(self.n_virtual)
                if v % self.grid.g_inter == i}

    # ------------------------------------------------------------------
    def train_batch(self, x: np.ndarray, y: np.ndarray) -> float:
        """One scheduled pipeline pass + all-reduce + optimizer step."""
        groups, total_mb = self.grid.split_batch(x, y,
                                                 self.microbatch_size)
        sched = self._schedule_for(len(groups[0]))
        for stage in self.stages.values():
            stage.microbatch_losses.clear()
        for opt in self.optimizers.values():
            opt.zero_grad()

        if self.backend == "process":
            self._run_process(sched, groups, total_mb)
        else:
            self._run_cooperative(sched, groups, total_mb)

        # Data-parallel all-reduce (sum): one collective per parameter
        # slot of each pipeline rank's column, recorded before the
        # numeric loop — the plan AxoNNTrainer records, so the protocol
        # verifier's column check applies unchanged.
        if self.grid.g_data > 1:
            for i in range(self.grid.g_inter):
                column = self.grid.data_parallel_ranks(i)
                param_lists = [self.optimizers[r].params for r in column]
                if self.recorder is not None:
                    for slot in range(len(param_lists[0])):
                        for r in column:
                            self.recorder.record_collective(
                                r, "allreduce_fp32", key=(i, slot))
                for params in zip(*param_lists):
                    grads = [p.grad for p in params if p.grad is not None]
                    if not grads:
                        continue
                    total = np.sum(grads, axis=0)
                    for p in params:
                        p.grad = total.copy()
        for opt in self.optimizers.values():
            opt.step()
        self.batches_trained += 1

        last = self.n_virtual - 1
        losses = [
            loss
            for (v, _j), stage in self.stages.items()
            if v == last
            for loss in stage.microbatch_losses.values()
        ]
        return float(np.mean(losses))

    def _run_cooperative(self, sched: Schedule, groups, total_mb: int):
        world = self.grid.world_size
        fwd_net = RankTransport(world, recorder=self.recorder)
        bwd_net = RankTransport(world, recorder=self.recorder)
        programs = {}
        for rank in range(world):
            _i, j = self.grid.coord_of(rank)
            programs[rank] = lower_rank(
                sched, self.grid, rank, self._rank_stages(rank),
                fwd_net, bwd_net, groups[j], total_mb)
        pump_planes(fwd_net, bwd_net, programs)

    # -- process backend ---------------------------------------------------
    def _run_process(self, sched: Schedule, groups, total_mb: int):
        from ..runtime.parallel import ProcessTransport, ProgramSpec
        if self._transport is None:
            self._transport = ProcessTransport(self.grid.world_size,
                                               recorder=self.recorder)
        programs = {}
        for rank in range(self.grid.world_size):
            _i, j = self.grid.coord_of(rank)
            params = {v: [p.data for p in stage.parameters()]
                      for v, stage in self._rank_stages(rank).items()}
            programs[rank] = ProgramSpec(
                _sched_worker, self.cfg, sched, self.grid.g_inter,
                self.grid.g_data, params, groups[j], total_mb,
                self.checkpoint_activations)
        results = self._transport.run(programs)
        for rank, reply in results.items():
            for v, grads in reply["grads"].items():
                for p, g in zip(self.stages[(v,
                                             self.grid.coord_of(rank)[1])]
                                .parameters(), grads):
                    p.grad = None if g is None else g
            for v, losses in reply["losses"].items():
                stage = self.stages[(v, self.grid.coord_of(rank)[1])]
                stage.microbatch_losses.update(losses)

    def close(self) -> None:
        """Shut down process-backend resources; idempotent."""
        if self._transport is not None:
            self._transport.close()
            self._transport = None

    # -- diagnostics -----------------------------------------------------
    def gather_state(self, j: int = 0) -> Dict[str, np.ndarray]:
        state: Dict[str, np.ndarray] = {}
        for v in range(self.n_virtual):
            for name, p in self.stages[(v, j)].named_parameters():
                state[name] = p.data.copy()
        return state


def _sched_worker(rank: int, send, cfg: GPTConfig, sched: Schedule,
                  g_inter: int, g_data: int,
                  params: Dict[int, List[np.ndarray]],
                  microbatches, total_mb: int,
                  checkpoint_activations: bool):
    """Module-level process-backend rank program (ProgramSpec target).

    Rebuilds this rank's virtual stages, loads the shipped parameters,
    walks the schedule under the single-FIFO ``yield RECV`` protocol
    (reordering through a (tag, microbatch) stash — ring arrival order
    is wall-time nondeterministic), and returns gradients and losses
    for the parent to apply.  Same :func:`_walk` as :func:`lower_rank`,
    so the numerics are bit-identical to the cooperative backend.
    """
    grid = RankGrid(g_inter, g_data)
    stages: Dict[int, PipelineStage] = {}
    for v, arrays in params.items():
        stage = PipelineStage(cfg, v, sched.n_virtual,
                              checkpoint_activations=checkpoint_activations)
        for p, arr in zip(stage.parameters(), arrays):
            np.copyto(p.data, arr)
        stages[v] = stage

    stash: Dict[Tuple[str, int], object] = {}

    def recv(plane: str, v: int, mb: int) -> Generator:
        tag = plane_tag(sched, plane, v)
        while (tag, mb) not in stash:
            pkt = yield RECV
            stash[(pkt.tag, pkt.microbatch)] = pkt.data
        return stash.pop((tag, mb))

    def send_to(dst: int, plane: str, v: int, mb: int, data) -> None:
        send(dst, plane_tag(sched, plane, v), mb, data)

    def program():
        yield from _walk(sched, grid, rank, stages, microbatches, total_mb,
                         recv, send_to)
        last_v = sched.n_virtual - 1
        return {
            "grads": {v: [None if p.grad is None else p.grad
                          for p in stage.parameters()]
                      for v, stage in stages.items()},
            "losses": {v: dict(stage.microbatch_losses)
                       for v, stage in stages.items() if v == last_v},
        }

    return program()
