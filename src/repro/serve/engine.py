"""Continuous-batching pipeline-parallel inference on the functional runtime.

The serving twin of :class:`repro.runtime.AxoNNTrainer`: the same
message-driven Algorithm-2 machinery (rank generators suspended on
``yield RECV`` over :class:`~repro.runtime.transport.RankTransport`), but
forward-only and with *dynamic* work — requests arrive with different
prompt lengths and generation budgets, so the unit of scheduling is not a
fixed microbatch but a **group**: either one prefill (the whole prompt in a
single batched forward that fills the request's KV caches) or a batch of
single-token decode steps for whatever requests currently have a token
ready.  Every stage runs a group as one
:meth:`~repro.runtime.InferenceStage.forward` over the stacked rows.
Rank 0 runs the continuous-batching scheduler; it admits a new
request into the in-flight batch the moment a slot frees up, rather than
waiting for the whole batch to drain (the Orca-style policy every modern
LLM server uses).

Numerics: each stage is an :class:`~repro.runtime.InferenceStage` built by
the same ``build_layer`` slots as training, decode steps attend over
per-request KV caches (each row of a group is bit-identical to a
forward of that request alone), and the final rank samples with the *shared*
:func:`repro.nn.sample_token` from a per-request
``np.random.default_rng(seed)`` stream.  A request therefore receives
bit-identical logits and consumes its RNG in exactly the same order as
``generate(model, ..., rng=np.random.default_rng(seed))`` — outputs are
token-for-token identical to the serial path, whatever the batching
policy, which the equivalence tests assert directly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from ..nn import GPTConfig, sample_token
from ..obs import RuntimeTracer
from ..runtime.stage import InferenceStage
from ..runtime.transport import RECV, RankTransport

__all__ = ["Request", "PipelineServer", "TAG_ACT", "TAG_TOKEN", "TAG_STOP",
           "stack_rows", "split_rows"]

TAG_ACT = "serve-act"      #: downstream boundary-activation group
TAG_TOKEN = "serve-token"  #: sampled tokens, last rank -> scheduler
TAG_STOP = "serve-stop"    #: shutdown cascade once all requests finished


def split_rows(rids: Sequence[int], out: np.ndarray
               ) -> List[Tuple[int, np.ndarray]]:
    """A group's stacked stage output as the ``TAG_ACT`` payload: one
    ``(rid, row)`` item per request, each row a (1, t, ...) view."""
    return [(rid, out[i:i + 1]) for i, rid in enumerate(rids)]


def stack_rows(items: Sequence[Tuple[int, np.ndarray]]
               ) -> Tuple[List[int], np.ndarray]:
    """Inverse of :func:`split_rows`: the group's rids and stacked rows."""
    return ([rid for rid, _ in items],
            np.concatenate([row for _, row in items]))


@dataclass(frozen=True)
class Request:
    """One generation request (the serving analogue of a `generate` call)."""

    rid: int
    prompt: np.ndarray
    max_new_tokens: int
    temperature: float = 1.0
    top_k: Optional[int] = None
    greedy: bool = False
    seed: int = 0

    def validate(self, cfg: GPTConfig) -> None:
        prompt = np.asarray(self.prompt)
        if prompt.ndim != 1 or prompt.size == 0:
            raise ValueError(f"request {self.rid}: prompt must be a "
                             "non-empty 1-D token array")
        if prompt.max() >= cfg.vocab_size or prompt.min() < 0:
            raise ValueError(f"request {self.rid}: prompt token outside "
                             "vocabulary")
        if self.max_new_tokens < 0:
            raise ValueError(f"request {self.rid}: max_new_tokens must "
                             "be >= 0")
        if prompt.size + self.max_new_tokens > cfg.seq_len:
            raise ValueError(
                f"request {self.rid}: prompt ({prompt.size}) + "
                f"max_new_tokens ({self.max_new_tokens}) exceeds seq_len "
                f"{cfg.seq_len}; the KV-cached pipeline serves full "
                "sequences up to the model context")
        if self.temperature <= 0:
            raise ValueError(f"request {self.rid}: temperature must be "
                             "positive")
        if self.top_k is not None and self.top_k < 1:
            raise ValueError(f"request {self.rid}: top_k must be >= 1")


class PipelineServer:
    """Serve batches of requests over ``g_inter`` pipeline ranks.

    * ``max_batch`` — decode-group width: how many single-token decode
      steps ride one pipeline pass.  ``max_batch=1`` degenerates to
      token-at-a-time passes; outputs are identical either way.
    * ``pipeline_limit`` — in-flight group cap (default ``g_inter``): how
      many groups may be travelling the pipeline simultaneously; keeps
      every stage busy without unbounded buffering.
    * ``max_active`` — KV-resident request cap, i.e. the continuous-batch
      size (default ``max_batch * pipeline_limit`` — enough resident
      requests to keep every pipeline slot filled with a full-width group,
      since a request's next token depends on its previous one finishing
      the whole pipeline).
    * ``tracer`` — optional :class:`~repro.obs.RuntimeTracer`; each request
      emits ``request``/``prefill``/``decode{t}`` spans on the ``serve``
      stream, so ``python -m repro trace`` tooling works unchanged.
    * ``recorder`` — optional protocol recorder forwarded to the
      transport (see :mod:`repro.analysis.protocol`).
    """

    def __init__(self, cfg: GPTConfig, g_inter: int = 1,
                 max_batch: int = 8, pipeline_limit: Optional[int] = None,
                 max_active: Optional[int] = None,
                 tracer: Optional[RuntimeTracer] = None,
                 recorder: Any = None):
        if g_inter < 1:
            raise ValueError("g_inter must be >= 1")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_active is not None and max_active < 1:
            raise ValueError("max_active must be >= 1")
        self.cfg = cfg
        self.g_inter = g_inter
        self.max_batch = max_batch
        if pipeline_limit is not None and pipeline_limit < 1:
            raise ValueError("pipeline_limit must be >= 1")
        self.pipeline_limit = pipeline_limit if pipeline_limit is not None \
            else g_inter
        self.max_active = max_active if max_active is not None \
            else max_batch * self.pipeline_limit
        self.tracer = tracer
        self.recorder = recorder
        self.stages = [InferenceStage(cfg, i, g_inter)
                       for i in range(g_inter)]

    # -- public API --------------------------------------------------------
    def serve(self, requests: Sequence[Request]) -> Dict[int, np.ndarray]:
        """Serve ``requests``; returns rid -> full sequence (prompt +
        generated), exactly what serial ``generate`` would return."""
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
            if self.g_inter == 1:
                self._serve_local(order, results)
            else:
                transport = RankTransport(self.g_inter,
                                          recorder=self.recorder)
                programs: Dict[int, Generator] = {
                    0: self._scheduler_program(transport, reqs, order,
                                               results)}
                for rank in range(1, self.g_inter - 1):
                    programs[rank] = self._mid_program(rank, transport, reqs)
                programs[self.g_inter - 1] = self._tail_program(
                    transport, reqs)
                transport.run(programs)
        return {
            req.rid: np.concatenate([
                np.asarray(req.prompt, dtype=np.int64),
                np.asarray(results.get(req.rid, []), dtype=np.int64)])
            for req in requests
        }

    # -- span helpers ------------------------------------------------------
    def _now(self) -> float:
        return self.tracer.now() if self.tracer is not None and \
            self.tracer.enabled else 0.0

    def _emit(self, name: str, start: float, rid: int,
              category: str = "compute") -> None:
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.record(0, "serve", name, start, self.tracer.now(),
                               category=category, microbatch=rid)

    # -- rank programs -----------------------------------------------------
    def _scheduler_program(self, transport: RankTransport,
                           reqs: Dict[int, Request],
                           order: List[Request],
                           results: Dict[int, List[int]]) -> Generator:
        """Rank 0: continuous-batching scheduler + first pipeline shard."""
        stage = self.stages[0]
        pending = deque(order)
        active: set = set()
        ready: deque = deque()  # (rid, last sampled token)
        inflight = 0
        seq = 0
        n_done = 0
        total = len(order)
        admit_t: Dict[int, float] = {}
        step_t: Dict[int, float] = {}
        n_tokens: Dict[int, int] = {}

        def pump() -> None:
            nonlocal inflight, seq
            while inflight < self.pipeline_limit:
                if pending and len(active) < self.max_active:
                    req = pending.popleft()
                    active.add(req.rid)
                    stage.start_request(req.rid)
                    admit_t[req.rid] = step_t[req.rid] = self._now()
                    n_tokens[req.rid] = 0
                    prompt = np.asarray(req.prompt,
                                        dtype=np.int64)[None, :]
                    act = stage.forward([req.rid], prompt)
                    transport.send(0, 1, TAG_ACT, seq, [(req.rid, act)])
                elif ready:
                    group = [ready.popleft()
                             for _ in range(min(len(ready), self.max_batch))]
                    rids = [rid for rid, _ in group]
                    now = self._now()
                    for rid in rids:
                        step_t[rid] = now
                    act = stage.forward(rids, np.asarray(
                        [[tok] for _, tok in group], dtype=np.int64))
                    transport.send(0, 1, TAG_ACT, seq, split_rows(rids, act))
                else:
                    return
                seq += 1
                inflight += 1

        pump()
        while n_done < total:
            pkt = yield RECV
            inflight -= 1
            for rid, tok, done in pkt.data:
                results[rid].append(tok)
                t = n_tokens[rid] = n_tokens[rid] + 1
                if t == 1:
                    self._emit("prefill", step_t[rid], rid)
                else:
                    self._emit(f"decode{t - 1}", step_t[rid], rid)
                if done:
                    active.discard(rid)
                    stage.finish_request(rid)
                    n_done += 1
                    self._emit("request", admit_t[rid], rid,
                               category="other")
                else:
                    ready.append((rid, tok))
            pump()
        transport.send(0, 1, TAG_STOP, 0, None)

    def _mid_program(self, rank: int, transport: RankTransport,
                     reqs: Dict[int, Request]) -> Generator:
        """Interior rank: forward-only relay with per-request KV caches."""
        stage = self.stages[rank]
        counts: Dict[int, int] = {}
        while True:
            pkt = yield RECV
            if pkt.tag == TAG_STOP:
                transport.send(rank, rank + 1, TAG_STOP, 0, None)
                return
            rids, acts = stack_rows(pkt.data)
            for rid in rids:
                if rid not in counts:
                    stage.start_request(rid)
                    counts[rid] = 0
            out = stage.forward(rids, acts)
            for rid in rids:
                counts[rid] += 1
                if counts[rid] >= reqs[rid].max_new_tokens:
                    stage.finish_request(rid)
                    del counts[rid]
            transport.send(rank, rank + 1, TAG_ACT, pkt.microbatch,
                           split_rows(rids, out))

    def _tail_program(self, transport: RankTransport,
                      reqs: Dict[int, Request]) -> Generator:
        """Last rank: final shard + per-request sampling."""
        rank = self.g_inter - 1
        stage = self.stages[rank]
        counts: Dict[int, int] = {}
        rngs: Dict[int, np.random.Generator] = {}
        while True:
            pkt = yield RECV
            if pkt.tag == TAG_STOP:
                return
            rids, acts = stack_rows(pkt.data)
            for rid in rids:
                if rid not in counts:
                    stage.start_request(rid)
                    counts[rid] = 0
                    rngs[rid] = np.random.default_rng(reqs[rid].seed)
            logits = stage.forward(rids, acts)
            out: List[Tuple[int, int, bool]] = []
            for i, rid in enumerate(rids):
                req = reqs[rid]
                counts[rid] += 1
                tok = sample_token(logits[i, -1], req.temperature,
                                   req.top_k, rngs[rid], req.greedy)
                done = counts[rid] >= req.max_new_tokens
                if done:
                    stage.finish_request(rid)
                    del counts[rid], rngs[rid]
                out.append((rid, tok, done))
            transport.send(rank, 0, TAG_TOKEN, pkt.microbatch, out)

    # -- g_inter == 1 ------------------------------------------------------
    def _serve_local(self, order: List[Request],
                     results: Dict[int, List[int]]) -> None:
        """Single-rank serving: the same stage/KV-cache/sampler machinery
        without a transport (the pipeline of depth one)."""
        stage = self.stages[0]
        for req in order:
            admit = self._now()
            stage.start_request(req.rid)
            rng = np.random.default_rng(req.seed)
            context = np.asarray(req.prompt, dtype=np.int64)[None, :]
            for t in range(req.max_new_tokens):
                t0 = self._now()
                logits = stage.forward([req.rid], context)
                tok = sample_token(logits[0, -1], req.temperature,
                                   req.top_k, rng, req.greedy)
                results[req.rid].append(tok)
                self._emit("prefill" if t == 0 else f"decode{t}", t0,
                           req.rid)
                context = np.asarray([[tok]], dtype=np.int64)
            stage.finish_request(req.rid)
            self._emit("request", admit, req.rid, category="other")
