"""Elastic serving on the functional runtime: disaggregation + autoscaling.

Two pieces, both built from the real message-driven machinery rather than
a model of it:

* :class:`DisaggPipelineServer` — prefill/decode disaggregation as an
  explicit wire protocol.  A *prefill pool* of ``g_prefill`` ranks and a
  *decode pool* of ``g_decode`` ranks each shard the full network
  (independently — the pools may have different depths).  A request's
  prompt flows down the prefill pipe once; every prefill rank exports its
  slice of the KV cache and ships it to the scheduler (``TAG_KV``), which
  re-shards the merged cache down the decode pipe in a single ingest
  message (``TAG_INGEST``).  Decode passes then run entirely inside the
  decode pool.  Because the ingest travels the same FIFO channels as the
  decode traffic, a request's first decode pass can never overtake its own
  KV — the property the model checker proves at the smoke configuration.
  Outputs are token-for-token identical to :class:`~repro.serve.engine.
  PipelineServer` (and hence to serial ``generate``): the prefill pipe
  produces bit-identical logits, and the request's whole RNG stream is
  consumed on the decode tail.

* :class:`FleetServer` — an elastic fleet of
  :class:`~repro.serve.engine.PipelineServer` replicas driven round by
  round: arrivals from a seeded trace (see
  :meth:`repro.serve.ArrivalSpec.sample_times`) pass SLO admission, an
  :class:`~repro.fleet.policy.AutoscalerPolicy` observes the fleet between
  rounds and scales it, and *both* planned scale-down and injected crashes
  decommission a replica through one code path
  (:meth:`FleetServer._decommission`), re-admitting outstanding requests
  under a :class:`~repro.runtime.transport.RankFailure` — the resilience
  layer's failure carrier — so retirement is provably just a crash the
  scheduler knew about in advance.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from ..nn import GPTConfig, sample_token
from ..obs import RuntimeTracer
from ..resilience import FaultPlan
from ..runtime.stage import InferenceStage
from ..runtime.transport import RECV, RankFailure, RankTransport
from ..serve.engine import (PipelineServer, Request, TAG_ACT, TAG_STOP,
                            TAG_TOKEN, split_rows, stack_rows)
from .policy import AutoscalerPolicy, FleetObservation, ScaleEvent
from .slo import (ADMIT, AdmissionController, BACKPRESSURE, DOWN,
                  PriorityQueue, SHED, SLOClass)

__all__ = ["DisaggPipelineServer", "FleetServer", "FleetRunReport",
           "TAG_KV", "TAG_INGEST", "TAG_DEC"]

TAG_KV = "fleet-kv"          #: prefill rank -> scheduler: exported KV slice
TAG_INGEST = "fleet-ingest"  #: scheduler -> decode pipe: merged KV + logits
TAG_DEC = "fleet-dec"        #: scheduler -> decode pool: next-token group


class DisaggPipelineServer:
    """Disaggregated prefill/decode serving over one transport world.

    Ranks ``0..g_prefill-1`` form the prefill pool (rank 0 doubles as the
    global scheduler, exactly like :class:`~repro.serve.engine.
    PipelineServer`), ranks ``g_prefill..g_prefill+g_decode-1`` the decode
    pool.  Knobs mirror the unified server: ``max_batch`` bounds decode
    group width, ``pipeline_limit`` the decode pool's in-flight groups
    (default ``g_decode``), ``prefill_limit`` concurrent prefills in the
    prefill pipe (default ``g_prefill``), ``max_active`` KV-resident
    requests in the decode pool.
    """

    def __init__(self, cfg: GPTConfig, g_prefill: int = 1,
                 g_decode: int = 1, max_batch: int = 8,
                 pipeline_limit: Optional[int] = None,
                 prefill_limit: Optional[int] = None,
                 max_active: Optional[int] = None,
                 recorder: Any = None):
        if g_prefill < 1 or g_decode < 1:
            raise ValueError("g_prefill and g_decode must be >= 1")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.cfg = cfg
        self.g_prefill = g_prefill
        self.g_decode = g_decode
        self.n_ranks = g_prefill + g_decode
        self.max_batch = max_batch
        if pipeline_limit is not None and pipeline_limit < 1:
            raise ValueError("pipeline_limit must be >= 1")
        if prefill_limit is not None and prefill_limit < 1:
            raise ValueError("prefill_limit must be >= 1")
        self.pipeline_limit = pipeline_limit if pipeline_limit is not None \
            else g_decode
        self.prefill_limit = prefill_limit if prefill_limit is not None \
            else g_prefill
        self.max_active = max_active if max_active is not None \
            else max_batch * self.pipeline_limit
        if self.max_active < 1:
            raise ValueError("max_active must be >= 1")
        self.recorder = recorder
        self.prefill_stages = [InferenceStage(cfg, i, g_prefill)
                               for i in range(g_prefill)]
        self.decode_stages = [InferenceStage(cfg, i, g_decode)
                              for i in range(g_decode)]

    # -- public API --------------------------------------------------------
    def serve(self, requests: Sequence[Request]) -> Dict[int, np.ndarray]:
        """Serve ``requests``; rid -> full sequence, identical to the
        unified :meth:`PipelineServer.serve` (and serial ``generate``)."""
        reqs: Dict[int, Request] = {}
        for req in requests:
            if req.rid in reqs:
                raise ValueError(f"duplicate request id {req.rid}")
            req.validate(self.cfg)
            reqs[req.rid] = req
        results: Dict[int, List[int]] = {
            req.rid: [] for req in requests if req.max_new_tokens > 0}
        order = [req for req in requests if req.max_new_tokens > 0]
        if order:
            transport = RankTransport(self.n_ranks, recorder=self.recorder)
            programs: Dict[int, Generator] = {
                0: self._scheduler_program(transport, reqs, order, results)}
            for r in range(1, self.g_prefill):
                programs[r] = self._prefill_program(r, transport)
            for j in range(self.g_decode):
                programs[self.g_prefill + j] = self._decode_program(
                    j, transport, reqs)
            transport.run(programs)
        return {
            req.rid: np.concatenate([
                np.asarray(req.prompt, dtype=np.int64),
                np.asarray(results.get(req.rid, []), dtype=np.int64)])
            for req in requests
        }

    # -- rank programs -----------------------------------------------------
    def _scheduler_program(self, transport: RankTransport,
                           reqs: Dict[int, Request],
                           order: List[Request],
                           results: Dict[int, List[int]]) -> Generator:
        """Rank 0: global scheduler + first prefill shard.

        Owns all flow control: starts prefills (bounded by
        ``prefill_limit``), collects the per-rank KV pieces, merges them,
        and drives the decode pool with ingest and decode groups (bounded
        by ``pipeline_limit``/``max_active``).
        """
        P, D = self.g_prefill, self.g_decode
        stage = self.prefill_stages[0]
        pending = deque(order)
        kv_parts: Dict[int, Dict[int, dict]] = {}   # rid -> rank -> blocks
        last_logits: Dict[int, np.ndarray] = {}
        ingest_ready: deque = deque()  # (rid, pos, merged blocks, logits)
        active: set = set()            # rids KV-resident in the decode pool
        ready: deque = deque()         # (rid, last token) awaiting a pass
        prefill_inflight = 0
        decode_inflight = 0
        seq = 0
        n_done = 0
        total = len(order)

        def pump() -> None:
            nonlocal prefill_inflight, decode_inflight, seq
            # feed the prefill pipe (bounded so exported KV doesn't pile up)
            while (pending and prefill_inflight < self.prefill_limit
                   and len(ingest_ready) < self.max_active):
                req = pending.popleft()
                stage.start_request(req.rid)
                prompt = np.asarray(req.prompt, dtype=np.int64)[None, :]
                out = stage.forward([req.rid], prompt)
                pos, piece = stage.export_kv(req.rid)
                stage.finish_request(req.rid)
                if P == 1:
                    ingest_ready.append((req.rid, pos, piece,
                                         out[0, -1].copy()))
                else:
                    kv_parts[req.rid] = {0: piece}
                    transport.send(0, 1, TAG_ACT, seq, [(req.rid, out)])
                    seq += 1
                    prefill_inflight += 1
            # feed the decode pipe: ingests first (new work), then decodes
            while decode_inflight < self.pipeline_limit:
                if ingest_ready and len(active) < self.max_active:
                    batch = []
                    while (ingest_ready and len(batch) < self.max_batch
                           and len(active) < self.max_active):
                        rid, pos, blocks, logits = ingest_ready.popleft()
                        active.add(rid)
                        batch.append((rid, pos, blocks, logits))
                    transport.send(0, P, TAG_INGEST, seq, batch)
                elif ready:
                    items: List[Tuple[int, int]] = []
                    for _ in range(min(len(ready), self.max_batch)):
                        items.append(ready.popleft())
                    transport.send(0, P, TAG_DEC, seq, items)
                else:
                    return
                seq += 1
                decode_inflight += 1

        pump()
        while n_done < total:
            pkt = yield RECV
            if pkt.tag == TAG_KV:
                for rid, src, piece, logits in pkt.data:
                    parts = kv_parts[rid]
                    parts[src] = piece
                    if logits is not None:
                        last_logits[rid] = logits
                    if len(parts) == P:
                        prefill_inflight -= 1
                        merged: Dict[int, tuple] = {}
                        for p in parts.values():
                            merged.update(p)
                        ingest_ready.append(
                            (rid, int(np.asarray(reqs[rid].prompt).size),
                             merged, last_logits.pop(rid)))
                        del kv_parts[rid]
            else:  # TAG_TOKEN
                decode_inflight -= 1
                for rid, tok, done in pkt.data:
                    results[rid].append(tok)
                    if done:
                        active.discard(rid)
                        n_done += 1
                    else:
                        ready.append((rid, tok))
            pump()
        if P > 1:
            transport.send(0, 1, TAG_STOP, 0, None)
        transport.send(0, P, TAG_STOP, 0, None)

    def _prefill_program(self, r: int,
                         transport: RankTransport) -> Generator:
        """Prefill rank ``r`` >= 1: one prompt pass per request, then the
        KV slice goes home to the scheduler and the request is gone."""
        stage = self.prefill_stages[r]
        is_tail = r == self.g_prefill - 1
        while True:
            pkt = yield RECV
            if pkt.tag == TAG_STOP:
                if not is_tail:
                    transport.send(r, r + 1, TAG_STOP, 0, None)
                return
            kv_items = []
            act_items = []
            for rid, act in pkt.data:
                stage.start_request(rid)
                out = stage.forward([rid], act)
                _, piece = stage.export_kv(rid)
                stage.finish_request(rid)
                kv_items.append((rid, r, piece,
                                 out[0, -1].copy() if is_tail else None))
                if not is_tail:
                    act_items.append((rid, out))
            if not is_tail:
                transport.send(r, r + 1, TAG_ACT, pkt.microbatch, act_items)
            transport.send(r, 0, TAG_KV, pkt.microbatch, kv_items)

    def _decode_program(self, j: int, transport: RankTransport,
                        reqs: Dict[int, Request]) -> Generator:
        """Decode rank ``j`` (world rank ``g_prefill + j``).

        Ingest messages seed the local KV shard (each rank peels off the
        slots it owns and forwards the rest); the tail additionally samples
        the request's *first* token from the handed-off prefill logits —
        the request's RNG stream lives entirely here, which is what makes
        the output bit-identical to the unified server.
        """
        P, D = self.g_prefill, self.g_decode
        rank = P + j
        stage = self.decode_stages[j]
        is_last = j == D - 1
        left: Dict[int, int] = {}   # decode passes still to flow through
        rngs: Dict[int, np.random.Generator] = {}
        while True:
            pkt = yield RECV
            if pkt.tag == TAG_STOP:
                if not is_last:
                    transport.send(rank, rank + 1, TAG_STOP, 0, None)
                return
            if pkt.tag == TAG_INGEST:
                out: List[Tuple[int, int, bool]] = []
                for rid, pos, blocks, logits in pkt.data:
                    stage.import_kv(rid, pos, blocks)
                    left[rid] = reqs[rid].max_new_tokens - 1
                    if is_last:
                        req = reqs[rid]
                        rngs[rid] = np.random.default_rng(req.seed)
                        tok = sample_token(logits, req.temperature,
                                           req.top_k, rngs[rid], req.greedy)
                        done = left[rid] == 0
                        out.append((rid, tok, done))
                        if done:
                            stage.finish_request(rid)
                            del left[rid], rngs[rid]
                    elif left[rid] == 0:
                        stage.finish_request(rid)
                        del left[rid]
                if is_last:
                    transport.send(rank, 0, TAG_TOKEN, pkt.microbatch, out)
                else:
                    transport.send(rank, rank + 1, TAG_INGEST,
                                   pkt.microbatch, pkt.data)
                continue
            # a decode group, one pass for all of it: the first rank embeds
            # raw tokens, the rest relay boundary activations; the tail
            # samples.
            if j == 0:
                rids = [rid for rid, _ in pkt.data]
                x = np.asarray([[tok] for _, tok in pkt.data],
                               dtype=np.int64)
            else:
                rids, x = stack_rows(pkt.data)
            y = stage.forward(rids, x)
            out = []
            for i, rid in enumerate(rids):
                left[rid] -= 1
                if is_last:
                    req = reqs[rid]
                    tok = sample_token(y[i, -1], req.temperature,
                                       req.top_k, rngs[rid], req.greedy)
                    out.append((rid, tok, left[rid] == 0))
                if left[rid] == 0:
                    stage.finish_request(rid)
                    del left[rid]
                    if is_last:
                        del rngs[rid]
            if is_last:
                transport.send(rank, 0, TAG_TOKEN, pkt.microbatch, out)
            else:
                transport.send(rank, rank + 1, TAG_ACT, pkt.microbatch,
                               split_rows(rids, y))


# ---------------------------------------------------------------------------
# Elastic fleet of unified replicas
# ---------------------------------------------------------------------------

@dataclass
class _FunctionalReplica:
    """Lifecycle record of one fleet member."""

    id: int
    state: str                     #: provisioning | serving | draining | dead
    cold_remaining: int
    server: Optional[PipelineServer] = None
    backlog: deque = field(default_factory=deque)

    @property
    def alive(self) -> bool:
        return self.state in ("serving", "draining")


@dataclass
class FleetRunReport:
    """Everything a :meth:`FleetServer.run` produced."""

    results: Dict[int, np.ndarray]
    events: List[ScaleEvent]
    rounds: int
    replica_rounds: int            #: paid capacity (functional analogue of
    n_arrived: int = 0             #: replica-seconds in the DES)
    n_admitted: int = 0
    n_completed: int = 0
    n_shed: int = 0
    n_backpressure: int = 0
    n_down: int = 0
    n_readmitted: int = 0
    failures: List[RankFailure] = field(default_factory=list)
    max_replicas_seen: int = 0

    @property
    def n_lost(self) -> int:
        return self.n_admitted - self.n_completed

    def replica_counts(self) -> List[Tuple[str, int]]:
        return [(e.kind, e.n_to) for e in self.events]


class FleetServer:
    """Round-driven elastic fleet of unified pipeline replicas.

    Each *round* spans ``round_s`` of trace time: arrivals within the
    window face SLO admission, the policy observes the fleet and scales
    it, cold starts tick down, queued requests are dispatched to the
    least-loaded serving replica, and every live replica serves up to
    ``serve_per_round`` of its backlog with a real
    :class:`~repro.serve.engine.PipelineServer` pass over RankTransport.

    ``fault_plan`` may schedule ``crash`` and ``retire`` faults against
    replica ids (``Fault(kind=..., rank=replica_id, tick=round)``); both
    funnel into :meth:`_decommission`, which re-admits the victim's
    outstanding backlog under a :class:`RankFailure` — the shared failure
    path the tests pin down.
    """

    def __init__(self, cfg: GPTConfig, policy: AutoscalerPolicy, *,
                 g_inter: int = 2, max_batch: int = 4,
                 round_s: float = 1.0, serve_per_round: int = 4,
                 cold_start_rounds: int = 1,
                 backlog_limit: Optional[int] = None,
                 admission: Optional[AdmissionController] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 tracer: Optional[RuntimeTracer] = None,
                 max_rounds: int = 10_000):
        if round_s <= 0 or serve_per_round < 1 or cold_start_rounds < 0:
            raise ValueError("round_s must be positive, serve_per_round "
                             ">= 1, cold_start_rounds >= 0")
        #: how far ahead a replica may own queued work; > serve_per_round
        #: means backlogs survive round boundaries, so a decommissioned
        #: replica really does hold requests to re-admit
        self.backlog_limit = backlog_limit if backlog_limit is not None \
            else 2 * serve_per_round
        if self.backlog_limit < serve_per_round:
            raise ValueError("backlog_limit must be >= serve_per_round")
        self.cfg = cfg
        self.policy = policy
        self.g_inter = g_inter
        self.max_batch = max_batch
        self.round_s = round_s
        self.serve_per_round = serve_per_round
        self.cold_start_rounds = cold_start_rounds
        self.admission = admission or AdmissionController(
            classes=(SLOClass(),))
        self.fault_plan = fault_plan or FaultPlan()
        self.tracer = tracer
        self.max_rounds = max_rounds

    # -- shared decommission path (scale-down AND crash) -------------------
    def _decommission(self, rep: _FunctionalReplica, kind: str,
                      round_idx: int, queue: PriorityQueue,
                      priorities: Dict[int, int],
                      report: FleetRunReport) -> None:
        """Remove ``rep`` from the fleet; re-admit whatever it still owed.

        This is the one exit for replicas: graceful retirement arrives
        with an empty backlog, a crash (or forced retire) with outstanding
        requests — either way the bookkeeping, the re-admission, and the
        failure record are identical.
        """
        outstanding = list(rep.backlog)
        rep.backlog.clear()
        rep.state = "dead"
        rep.server = None
        if outstanding:
            failure = RankFailure(
                f"replica {rep.id} {kind} with {len(outstanding)} "
                "outstanding requests", dead=[rep.id],
                detected_at=round_idx)
            report.failures.append(failure)
            for req in outstanding:  # head of queue: they already waited
                queue.push_front(req, priorities[req.rid])
            report.n_readmitted += len(outstanding)
        self._span(rep.id, kind, round_idx)

    def _span(self, replica_id: int, name: str, round_idx: int) -> None:
        if self.tracer is not None and self.tracer.enabled:
            t0 = round_idx * self.round_s
            self.tracer.record(replica_id, "fleet", name, t0,
                               t0 + self.round_s, category="recovery")

    # -- the run loop ------------------------------------------------------
    def run(self, trace: Sequence[Tuple[float, Request]],
            classes: Optional[Dict[int, str]] = None) -> FleetRunReport:
        """Serve a timed ``[(arrival_s, request), ...]`` trace to drain.

        ``classes`` maps rid -> SLO class name (defaults to the admission
        controller's first class).  Returns the merged results — every
        admitted request's full sequence, regardless of how many replicas
        it bounced through.
        """
        self.policy.reset()
        trace = sorted(trace, key=lambda tr: tr[0])
        default_cls = next(iter(self.admission.classes))
        classes = classes or {}
        priorities: Dict[int, int] = {}
        queue: PriorityQueue = PriorityQueue()
        replicas: List[_FunctionalReplica] = []
        report = FleetRunReport(results={}, events=[], rounds=0,
                                replica_rounds=0)
        faults_by_round: Dict[int, List] = {}
        for f in list(self.fault_plan.crashes()) + \
                list(self.fault_plan.retires()):
            faults_by_round.setdefault(f.tick, []).append(f)

        def spawn(round_idx: int, reason: str) -> _FunctionalReplica:
            rep = _FunctionalReplica(
                id=len(replicas), state="provisioning",
                cold_remaining=self.cold_start_rounds)
            if rep.cold_remaining == 0:
                rep.state = "serving"
                rep.server = self._build_server()
            replicas.append(rep)
            self._span(rep.id, f"spawn:{reason}", round_idx)
            return rep

        def fleet_counts() -> Tuple[int, int, int]:
            live = sum(r.state == "serving" for r in replicas)
            prov = sum(r.state == "provisioning" for r in replicas)
            drain = sum(r.state == "draining" for r in replicas)
            return live, prov, drain

        spawn(0, "initial")
        trace_i = 0
        admitted_rids: set = set()
        served_last = capacity_last = 0
        round_idx = 0
        while round_idx < self.max_rounds:
            now = round_idx * self.round_s
            # 1. arrivals in [now, now + round_s) hit the front door
            n_arrived_round = 0
            while trace_i < len(trace) and \
                    trace[trace_i][0] < now + self.round_s:
                _, req = trace[trace_i]
                trace_i += 1
                n_arrived_round += 1
                report.n_arrived += 1
                cls = self.admission.slo_class(
                    classes.get(req.rid, default_cls))
                live, _, _ = fleet_counts()
                depth = len(queue) + sum(len(r.backlog) for r in replicas
                                         if r.alive)
                ahead = depth  # priority queue: conservative estimate
                rate = live * self.serve_per_round / self.round_s
                verdict = self.admission.verdict(cls, depth, ahead,
                                                 max(live, 1), rate)
                if verdict == ADMIT:
                    priorities[req.rid] = cls.priority
                    queue.push(req, cls.priority)
                    admitted_rids.add(req.rid)
                    report.n_admitted += 1
                elif verdict == SHED:
                    report.n_shed += 1
                elif verdict == BACKPRESSURE:
                    report.n_backpressure += 1
                else:
                    report.n_down += 1
            # 2. scheduled faults: crash now, retire = forced scale-down
            for f in faults_by_round.get(round_idx, []):
                if f.rank is None or f.rank >= len(replicas):
                    continue
                rep = replicas[f.rank]
                if not rep.alive:
                    continue
                live, prov, drain = fleet_counts()
                self._decommission(rep, f.kind, round_idx, queue,
                                   priorities, report)
                report.events.append(ScaleEvent(
                    t_s=now, kind="crash" if f.kind == "crash" else "down",
                    n_from=live + prov + drain,
                    n_to=live + prov + drain - 1, reason=f.kind))
            # 3. the policy looks at the fleet and names a target size
            live, prov, drain = fleet_counts()
            obs = FleetObservation(
                now_s=now, queue_depth=len(queue), n_live=live,
                n_provisioning=prov, n_draining=drain,
                utilization=(served_last / capacity_last
                             if capacity_last else 0.0),
                arrival_rate=n_arrived_round / self.round_s,
                service_rate_per_replica=self.serve_per_round /
                self.round_s)
            target = self.policy.decide(obs)
            provisioned = live + prov
            while provisioned < target:
                spawn(round_idx, "policy")
                report.events.append(ScaleEvent(
                    t_s=now, kind="up", n_from=provisioned,
                    n_to=provisioned + 1, reason=self.policy.name))
                provisioned += 1
            if provisioned > target:
                # retire from the top: newest serving replicas first,
                # preferring ones with nothing left to do
                victims = sorted(
                    (r for r in replicas if r.state == "serving"),
                    key=lambda r: (len(r.backlog) > 0, -r.id))
                for rep in victims[:provisioned - target]:
                    rep.state = "draining"
                    report.events.append(ScaleEvent(
                        t_s=now, kind="down", n_from=provisioned,
                        n_to=provisioned - 1, reason=self.policy.name))
                    provisioned -= 1
            # 4. cold starts tick down
            for rep in replicas:
                if rep.state == "provisioning":
                    if rep.cold_remaining > 0:
                        rep.cold_remaining -= 1
                    if rep.cold_remaining == 0:
                        rep.state = "serving"
                        rep.server = self._build_server()
                        self._span(rep.id, "warm", round_idx)
            # 5. last line of defence: never strand admitted work
            live, prov, _ = fleet_counts()
            if live + prov == 0 and (len(queue) > 0 or trace_i < len(trace)
                                     or admitted_rids -
                                     set(report.results)):
                spawn(round_idx, "restore")
                report.events.append(ScaleEvent(
                    t_s=now, kind="up", n_from=0, n_to=1, reason="restore"))
            # 6. dispatch: least-loaded serving replica wins each request
            serving = [r for r in replicas if r.state == "serving"]
            while len(queue) > 0 and serving:
                rep = min(serving, key=lambda r: (len(r.backlog), r.id))
                if len(rep.backlog) >= self.backlog_limit:
                    break
                rep.backlog.append(queue.pop())
            # 7. serve: one real pipeline pass per replica with work
            served_last = 0
            capacity_last = max(1, len(serving) * self.serve_per_round)
            for rep in replicas:
                if not rep.alive:
                    continue
                batch = [rep.backlog.popleft()
                         for _ in range(min(len(rep.backlog),
                                            self.serve_per_round))]
                if batch:
                    out = rep.server.serve(batch)
                    report.results.update(out)
                    report.n_completed += len(out)
                    served_last += len(batch)
                if rep.state == "draining" and not rep.backlog:
                    live, prov, drain = fleet_counts()
                    self._decommission(rep, "retire", round_idx, queue,
                                       priorities, report)
            report.replica_rounds += sum(1 for r in replicas
                                         if r.state != "dead")
            report.max_replicas_seen = max(
                report.max_replicas_seen,
                sum(1 for r in replicas if r.state != "dead"))
            round_idx += 1
            report.rounds = round_idx
            if trace_i >= len(trace) and len(queue) == 0 and \
                    not any(r.backlog for r in replicas) and \
                    round_idx > max(faults_by_round, default=-1):
                break
        else:
            raise RuntimeError(f"fleet did not drain in "
                               f"{self.max_rounds} rounds")
        return report

    def _build_server(self) -> PipelineServer:
        return PipelineServer(self.cfg, g_inter=self.g_inter,
                              max_batch=self.max_batch)
