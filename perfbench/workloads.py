"""The benchmark's four workloads.

Each workload builds its inputs from the seed alone, then hands the
program only those inputs.  It exposes:

* ``setup()`` / ``teardown()``: build, warm and release one instance;
* ``op()``: one unit of work, checked for correctness as it runs
  (``attempted`` / ``failed`` count every operation and check).  It
  returns the op's record: seconds under every key but ``tok_s``, a rate;
* ``end_to_end(records)``: the user-visible metrics of those records;
* ``wrap(tracer)`` / ``layers(tracer, n_ops)``: what a traced run times
  and the per-layer metrics it reports, per operation.

Why each workload was chosen, and which end-to-end metric each layer
metric should move, is written down in ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import pickle
import statistics
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import fleet as fleet_pkg
from repro.experiments.fleet import AUTOSCALE_SLO_S, autoscale_serving_model
from repro.fleet import (AdmissionController, FleetModel, PredictivePolicy,
                         ReactivePolicy, SLOClass)
from repro.fleet import sim as fleet_sim
from repro.fleet.policy import AutoscalerPolicy
from repro.nn import GPT, GPTConfig, generate
from repro.nn import optim as nn_optim
from repro.nn.modules import Module
from repro.nn.tensor import Tensor
from repro.obs import RuntimeTracer
from repro.perf import counters
from repro.runtime import AxoNNTrainer, SerialTrainer
from repro.runtime import parallel as rt_parallel
from repro.runtime.stage import InferenceStage, PipelineStage
from repro.runtime.transport import RankTransport
from repro.serve import ArrivalSpec, PipelineServer, Request, RequestSpec
from repro.serve import engine as serve_engine
from repro.sim.engine import Environment

from machine import threads
from tracing import LayerTracer


def quantile(values: List[float], q: float) -> float:
    """Linear-interpolated quantile, ``q`` in [0, 1]."""
    return float(np.quantile(np.asarray(values, dtype=float), q))


def _payload_bytes(data) -> int:
    """ndarray bytes carried by a transport payload."""
    if isinstance(data, np.ndarray):
        return data.nbytes
    if isinstance(data, (list, tuple)):
        return sum(_payload_bytes(d) for d in data)
    return 0


class Workload:
    """Shared bookkeeping: correctness tally and exact-counter repeats."""

    name = ""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self._exact: Dict[object, tuple] = {}

    def check(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1

    def check_exact(self, counts: tuple, key: object = None) -> None:
        """Counters that must repeat exactly whenever ``key``'s op repeats."""
        self.check(counts == self._exact.setdefault(key, counts))

    def pids(self) -> List[int]:
        """Worker processes whose memory and CPU count towards the run."""
        return []

    def untraced_pass_metrics(self) -> Dict[str, float]:
        """Per-layer figures read from the untraced pass of a traced run."""
        return {}

    def teardown(self) -> None:
        pass


# -- training -----------------------------------------------------------------

class _Train(Workload):
    """One ``AxoNNTrainer.train_batch`` per op over a seeded batch stream."""

    cfg: GPTConfig
    batch = 0
    grid: Tuple[int, int] = (1, 1)
    backend = "cooperative"
    #: leading steps whose losses are compared with the reference trainer
    n_ref = 4
    n_batches = 8

    def __init__(self, seed: int):
        super().__init__()
        rng = np.random.default_rng(seed)
        shape = (self.batch, self.cfg.seq_len)
        self.batches = [(rng.integers(0, self.cfg.vocab_size, shape),
                         rng.integers(0, self.cfg.vocab_size, shape))
                        for _ in range(self.n_batches)]
        self.ref_losses = self.reference_losses()
        self.trainer: Optional[AxoNNTrainer] = None
        self.messages: List[int] = []

    def reference_losses(self) -> List[float]:
        raise NotImplementedError

    def losses_match(self, got: float, want: float) -> bool:
        raise NotImplementedError

    def setup(self) -> None:
        self.trainer = AxoNNTrainer(
            self.cfg, g_inter=self.grid[0], g_data=self.grid[1],
            microbatch_size=2, backend=self.backend)
        self._step = 0
        self.op()  # warm-up; spawns process workers

    def teardown(self) -> None:
        if self.trainer is not None:
            self.trainer.close()
            self.trainer = None

    def op(self) -> Dict[str, float]:
        x, y = self.batches[self._step % self.n_batches]
        t0 = time.perf_counter()
        report = self.trainer.train_batch(x, y)
        dt = time.perf_counter() - t0
        ok = bool(np.isfinite(report.loss))
        if self._step < self.n_ref:
            ok = ok and self.losses_match(report.loss,
                                          self.ref_losses[self._step])
        self.check(ok)
        self._step += 1
        self.messages.append(report.messages)
        return {"step": dt}

    def end_to_end(self, records) -> Dict[str, float]:
        steps = [r["step"] for r in records]
        step = statistics.median(steps)
        return {
            "tok_s": self.batch * self.cfg.seq_len / step,
            "latency_ms.p50": step * 1e3,
            "latency_ms.p90": quantile(steps, 0.9) * 1e3,
        }

    def wrap(self, tr: LayerTracer) -> None:
        self._send_bytes = 0

        def on_send(args, kwargs, result, elapsed):
            data = args[5] if len(args) > 5 else kwargs.get("data")
            self._send_bytes += _payload_bytes(data)

        tr.wrap(Module, "__call__", "nn")
        tr.wrap(Tensor, "backward", "nn")
        tr.wrap(nn_optim.Adam, "step", "nn")
        tr.wrap(nn_optim, "adam_step", "nn")
        tr.wrap(PipelineStage, "forward", "stage")
        tr.wrap(PipelineStage, "backward", "stage")
        tr.wrap(RankTransport, "run", "transport")
        tr.wrap(RankTransport, "send", "transport", hook=on_send)
        tr.wrap(AxoNNTrainer, "train_batch", "engine")
        tr.wrap(rt_parallel.ProcessBackend, "run_batch", "parallel")
        #: (fn, *args) of this op's ProcessPool.submit calls, pickled
        #: after the op so that measuring their size is not timed
        self._submits: List[tuple] = []
        tr.wrap(rt_parallel.ProcessPool, "submit", "parallel",
                hook=lambda a, k, r, e: self._submits.append(a[2:]))

    def traced_op(self, tr: LayerTracer) -> None:
        """One op under the tracer, with its exact counters checked."""
        calls = tr.fn_calls["repro.nn.optim.adam_step"]
        nodes = counters.get("graph_nodes")
        sent = self._send_bytes
        self.op()
        self._submit_bytes = sum(len(pickle.dumps(a)) for a in self._submits)
        self._submits.clear()
        self._threads = threads(self.pids())
        self.check_exact((
            counters.get("graph_nodes") - nodes,
            tr.fn_calls["repro.nn.optim.adam_step"] - calls,
            self._send_bytes - sent,
            self.messages[-1],
            self._submit_bytes))

    def layers(self, tr: LayerTracer, n: int,
               wall_s: float) -> Dict[str, float]:
        incl = tr.incl_s
        m = {
            "nn.graph_nodes": counters.get("graph_nodes") / n,
            "nn.adam_calls": tr.fn_calls["repro.nn.optim.adam_step"] / n,
            "nn.optim_ms": incl["Adam.step"] * 1e3 / n,
            "stage.fwd_ms": incl["PipelineStage.forward"] * 1e3 / n,
            "stage.bwd_ms": incl["PipelineStage.backward"] * 1e3 / n,
            "transport.msgs": statistics.median(self.messages),
            "transport.bytes": self._send_bytes / n,
            "transport.self_ms": tr.self_s["transport"] * 1e3 / n,
            "engine.dp_ms": tr.self_s["engine"] * 1e3 / n,
        }
        if self.backend == "process":
            run_batch = incl["ProcessBackend.run_batch"]
            m.update({
                "proc.run_batch_ms": run_batch * 1e3 / n,
                "proc.parent_ms": (wall_s - run_batch) * 1e3 / n,
                "proc.threads": self._threads,
                "proc.submit_bytes": self._submit_bytes,
            })
        return m


class TrainHybrid(_Train):
    """Cooperative 2x2 hybrid (paper Fig. 2 shape), fp32, bench GPT."""

    name = "train-hybrid"
    cfg = GPTConfig(vocab_size=64, seq_len=32, n_layer=4, n_head=4,
                    hidden=64, dropout=0.0, init_seed=7)
    batch = 8
    grid = (2, 2)

    def reference_losses(self) -> List[float]:
        serial = SerialTrainer(self.cfg)
        return [serial.train_batch(x, y)
                for x, y in self.batches[:self.n_ref]]

    def losses_match(self, got: float, want: float) -> bool:
        return bool(np.isclose(got, want, rtol=2e-4, atol=2e-5))


class TrainProcess(_Train):
    """Process backend, two pipeline workers, 8-layer GPT, batch 16."""

    name = "train-process"
    cfg = GPTConfig(vocab_size=64, seq_len=32, n_layer=8, n_head=4,
                    hidden=64, dropout=0.0, init_seed=7)
    batch = 16
    grid = (2, 1)
    backend = "process"

    def reference_losses(self) -> List[float]:
        coop = AxoNNTrainer(self.cfg, g_inter=2, g_data=1,
                            microbatch_size=2)
        return [coop.train_batch(x, y).loss
                for x, y in self.batches[:self.n_ref]]

    def losses_match(self, got: float, want: float) -> bool:
        return got == want

    def pids(self) -> List[int]:
        if self.trainer is None:
            return []
        workers = self.trainer.process_backend.pool.workers
        return [h.proc.pid for h in workers.values() if h.proc.is_alive()]


# -- serving ------------------------------------------------------------------

class ServeMixed(Workload):
    """Closed offline batch on a 2-stage ``PipelineServer``.

    Requests alternate between decode-heavy (short prompt, long output)
    and prefill-heavy (long prompt, short output); all are submitted at
    t=0.  Lengths are fixed so every seed serves the same amount of work;
    the seed draws the prompt tokens and the sampling settings.
    """

    name = "serve-mixed"
    cfg = GPTConfig(vocab_size=64, seq_len=64, n_layer=4, n_head=4,
                    hidden=64, dropout=0.0, init_seed=7)
    n_requests = 24
    #: (prompt tokens, new tokens) of the two alternating request kinds
    shapes = ((4, 32), (48, 4))

    def __init__(self, seed: int):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.requests = []
        for rid in range(self.n_requests):
            p, m = self.shapes[rid % 2]
            self.requests.append(Request(
                rid=rid, prompt=rng.integers(0, self.cfg.vocab_size, p),
                max_new_tokens=m,
                temperature=float(rng.uniform(0.7, 1.3)),
                top_k=int(rng.integers(2, 32)) if rng.random() < 0.5
                else None,
                greedy=bool(rng.random() < 0.5),
                seed=int(rng.integers(0, 2**31))))
        self.tokens = sum(r.max_new_tokens for r in self.requests)
        model = GPT(self.cfg)
        model.eval()
        self.expected = {
            r.rid: generate(model, r.prompt, r.max_new_tokens,
                            temperature=r.temperature, top_k=r.top_k,
                            rng=np.random.default_rng(r.seed),
                            greedy=r.greedy)
            for r in self.requests}
        self.server: Optional[PipelineServer] = None
        self.ttft_s: List[float] = []
        self.itl_s: List[float] = []
        self.queue_s: List[float] = []
        self._n = self._n_traced = 0

    def setup(self) -> None:
        self.server = PipelineServer(self.cfg, g_inter=2, max_batch=8)
        self._serve(None)

    def _serve(self, tracer: Optional[RuntimeTracer]) -> float:
        self.server.tracer = tracer
        t0 = time.perf_counter()
        out = self.server.serve(self.requests)
        dt = time.perf_counter() - t0
        self.check(all(np.array_equal(out[rid], want)
                       for rid, want in self.expected.items()))
        return dt

    def op(self) -> Dict[str, float]:
        """Alternate: tracer off for throughput, on for latencies."""
        self._n += 1
        if self._n % 2:
            return {"tok_s": self.tokens / self._serve(None)}
        tracer = RuntimeTracer()
        start = tracer.now()
        self._serve(tracer)
        return self._latencies(tracer.spans, start)

    def _latencies(self, spans, start: float) -> Dict[str, float]:
        """The median and 90th percentile of each generated token's wait:
        from t=0 for the first token of a request, from the request's
        previous token for the others."""
        ends: Dict[int, List[Tuple[int, float]]] = {}
        for s in spans:
            if s.name == "request":
                self.queue_s.append(s.start - start)
            elif s.name == "prefill":
                self.ttft_s.append(s.end - start)
                ends.setdefault(s.microbatch, []).append((0, s.end))
            elif s.name.startswith("decode"):
                ends.setdefault(s.microbatch, []).append(
                    (int(s.name[6:]), s.end))
        waits = []
        for marks in ends.values():
            marks.sort()
            gaps = [b[1] - a[1] for a, b in zip(marks, marks[1:])]
            self.itl_s.extend(gaps)
            waits.extend([marks[0][1] - start, *gaps])
        return {"wait_p50": quantile(waits, 0.5),
                "wait_p90": quantile(waits, 0.9)}

    def end_to_end(self, records) -> Dict[str, float]:
        def median(key):
            return statistics.median(r[key] for r in records if key in r)
        return {
            "tok_s": median("tok_s"),
            "latency_ms.p50": median("wait_p50") * 1e3,
            "latency_ms.p90": median("wait_p90") * 1e3,
        }

    def untraced_pass_metrics(self) -> Dict[str, float]:
        return {
            "serve.ttft_ms.p50": quantile(self.ttft_s, 0.5) * 1e3,
            "serve.ttft_ms.p99": quantile(self.ttft_s, 0.99) * 1e3,
            "serve.itl_ms.p50": quantile(self.itl_s, 0.5) * 1e3,
            "serve.itl_ms.p99": quantile(self.itl_s, 0.99) * 1e3,
            "serve.queue_wait_ms.p50": quantile(self.queue_s, 0.5) * 1e3,
            "serve.queue_wait_ms.p99": quantile(self.queue_s, 0.99) * 1e3,
        }

    def wrap(self, tr: LayerTracer) -> None:
        self._fwd = {"prefill": 0.0, "decode": 0.0}
        self._groups = [0, 0]  # serve-act packets, requests in them
        self._send_bytes = 0
        self._kv_peak = 0

        def on_forward(args, kwargs, result, elapsed):
            kind = "prefill" if np.shape(args[2])[1] > 1 else "decode"
            self._fwd[kind] += elapsed

        def on_send(args, kwargs, result, elapsed):
            data = args[5] if len(args) > 5 else kwargs.get("data")
            self._send_bytes += _payload_bytes(data)
            if args[3] == serve_engine.TAG_ACT:
                self._groups[0] += 1
                self._groups[1] += len(data)

        def on_start(args, kwargs, result, elapsed):
            kv = sum(st.kv_bytes() for st in self.server.stages)
            self._kv_peak = max(self._kv_peak, kv)

        tr.wrap(Module, "__call__", "nn")
        tr.wrap(InferenceStage, "forward", "stage", hook=on_forward)
        tr.wrap(InferenceStage, "start_request", "stage", hook=on_start)
        tr.wrap(InferenceStage, "finish_request", "stage")
        tr.wrap(RankTransport, "run", "transport")
        tr.wrap(RankTransport, "send", "transport", hook=on_send)
        tr.wrap(serve_engine, "sample_token", "serve")
        tr.wrap(PipelineServer, "serve", "serve")

    def traced_op(self, tr: LayerTracer) -> None:
        fwd = tr.fn_calls["InferenceStage.forward"]
        groups = tuple(self._groups)
        sent = self._send_bytes
        # The same tracer-off / tracer-on alternation as op(), so that the
        # two differ only by the layer wrappers.
        self._n_traced += 1
        self._serve(None if self._n_traced % 2 else RuntimeTracer())
        self.check_exact((tr.fn_calls["InferenceStage.forward"] - fwd,
                          self._groups[0] - groups[0],
                          self._groups[1] - groups[1],
                          self._send_bytes - sent))

    def layers(self, tr: LayerTracer, n: int,
               wall_s: float) -> Dict[str, float]:
        incl = tr.incl_s
        fwd, sample = incl["InferenceStage.forward"], incl["sample_token"]
        return {
            "transport.msgs": tr.fn_calls["RankTransport.send"] / n,
            "transport.bytes": self._send_bytes / n,
            "transport.self_ms": tr.self_s["transport"] * 1e3 / n,
            "serve.prefill_ms": self._fwd["prefill"] * 1e3 / n,
            "serve.decode_ms": self._fwd["decode"] * 1e3 / n,
            "serve.fwd_per_token":
                tr.fn_calls["InferenceStage.forward"] / (n * self.tokens),
            "serve.group_width": self._groups[1] / self._groups[0],
            "serve.sample_ms": sample * 1e3 / n,
            "serve.sched_self_ms":
                (incl["PipelineServer.serve"] - fwd - sample) * 1e3 / n,
            "serve.kv_bytes_peak": self._kv_peak,
        }


# -- fleet (discrete-event simulation) ---------------------------------------

class FleetFlash(Workload):
    """Seeded flash crowds through ``simulate_fleet``, two policies per op.

    The set-up of the elastic-fleet flash-crowd benchmark: the diurnal
    scenario's 5-replica, 4-deep serving model at 0.9x one replica's
    service rate, a 4x flash at a quarter of a 120 s horizon.  How many
    events a trace makes depends on its seed, so each run cycles through
    ``n_traces`` traces drawn from its seed, and its medians cover them all.
    """

    name = "fleet-flash"
    horizon_s = 120.0
    n_traces = 4
    policies = ("reactive", "predictive")

    def __init__(self, seed: int):
        super().__init__()
        self.serving = autoscale_serving_model()
        self.traces = []
        for k in range(self.n_traces):
            spec = RequestSpec(mean_prompt=8, mean_new_tokens=8,
                               seed=seed * self.n_traces + k)
            mu = fleet_pkg.service_rate_per_replica(self.serving, spec)
            self.traces.append((spec, ArrivalSpec(
                rate_per_s=0.9 * mu, seed=spec.seed, kind="flash",
                flash_at_s=self.horizon_s / 4, flash_factor=4.0,
                flash_decay_s=15.0)))
        self.ledgers: Dict[Tuple[str, int], tuple] = {}
        #: (policy, trace) -> outcome of the simulation
        self.outcome: Dict[Tuple[str, int], Dict[str, float]] = {}
        #: ops run so far, untraced and traced, each cycling the traces
        self._n = [0, 0]

    def _policy(self, name: str) -> AutoscalerPolicy:
        n = self.serving.n_replicas
        if name == "reactive":
            return ReactivePolicy(min_replicas=1, max_replicas=n,
                                  cooldown_s=5.0)
        return PredictivePolicy(period_s=self.horizon_s, lead_s=10.0,
                                min_replicas=1, max_replicas=n,
                                target_utilization=0.6)

    def setup(self) -> None:
        self.model = FleetModel(serving=self.serving, cold_start_s=5.0,
                                control_interval_s=1.0, drain_timeout_s=10.0)
        self.admission = AdmissionController(classes=(
            SLOClass(name="interactive", priority=0,
                     ttft_slo_s=AUTOSCALE_SLO_S, max_wait_s=5.0),))
        self.policy = {name: self._policy(name) for name in self.policies}
        spec, arrivals = self.traces[0]
        for name in self.policies:  # warm-up on the first tenth of a trace
            fleet_sim.simulate_fleet(
                self.model, self.policy[name], arrivals, self.horizon_s / 10,
                request_spec=spec, seq_len=64, admission=self.admission)

    def simulate(self, name: str, trace: int):
        spec, arrivals = self.traces[trace]
        stats = fleet_sim.simulate_fleet(
            self.model, self.policy[name], arrivals, self.horizon_s,
            request_spec=spec, seq_len=64, admission=self.admission)
        rejected = (stats.n_rejected_backpressure
                    + stats.n_rejected_admission + stats.n_rejected_down)
        ledger = (stats.n_arrived, stats.n_completed, rejected,
                  stats.tokens_out, stats.replica_seconds,
                  stats.n_cold_starts, len(stats.scale_events),
                  tuple(stats.ttft_s))
        # Two runs give identical ledgers and no request is lost.
        first = self.ledgers.setdefault((name, trace), ledger)
        self.check(ledger == first
                   and stats.n_arrived == stats.n_completed + rejected)
        within = sum(t <= AUTOSCALE_SLO_S for t in stats.ttft_s)
        self.outcome[name, trace] = {
            "replica_s": stats.replica_seconds,
            "slo_attain": within / max(1, stats.n_arrived),
            "cold_starts": stats.n_cold_starts,
            "scale_events": len(stats.scale_events),
            "rejected": rejected,
        }
        return stats

    def _next_trace(self, traced: bool) -> int:
        self._n[traced] += 1
        return self._n[traced] % self.n_traces

    def op(self) -> Dict[str, float]:
        trace = self._next_trace(False)
        t0 = time.perf_counter()
        tokens = sum(self.simulate(name, trace).tokens_out
                     for name in self.policies)
        dt = time.perf_counter() - t0
        return {"pair": dt, "tok_s": tokens / dt}

    def end_to_end(self, records) -> Dict[str, float]:
        pairs = [r["pair"] for r in records]
        return {
            "tok_s": statistics.median(r["tok_s"] for r in records),
            "latency_ms.p50": quantile(pairs, 0.5) * 1e3,
            "latency_ms.p90": quantile(pairs, 0.9) * 1e3,
        }

    def wrap(self, tr: LayerTracer) -> None:
        #: AdmissionController.verdict seconds while each policy ran
        self._verdict_s = {name: 0.0 for name in self.policies}
        #: Environment.step calls of one pair on each trace
        self._events: Dict[int, int] = {}
        tr.wrap(Environment, "step", "sim")
        tr.wrap(ReactivePolicy, "decide", "fleet")
        tr.wrap(PredictivePolicy, "decide", "fleet")
        tr.wrap(AdmissionController, "verdict", "fleet")
        tr.wrap(fleet_sim, "simulate_fleet", "fleet")

    def traced_op(self, tr: LayerTracer) -> None:
        trace = self._next_trace(True)
        steps = tr.fn_calls["Environment.step"]
        for name in self.policies:
            verdict = tr.incl_s["AdmissionController.verdict"]
            self.simulate(name, trace)
            self._verdict_s[name] += \
                tr.incl_s["AdmissionController.verdict"] - verdict
        self._events[trace] = tr.fn_calls["Environment.step"] - steps
        self.check_exact((self._events[trace],), key=trace)

    def layers(self, tr: LayerTracer, n: int,
               wall_s: float) -> Dict[str, float]:
        m = {}
        for name in self.policies:
            cls = "ReactivePolicy" if name == "reactive" \
                else "PredictivePolicy"
            m[f"fleet.policy_ms.{name}"] = \
                tr.incl_s[f"{cls}.decide"] * 1e3 / n
            m[f"fleet.admission_ms.{name}"] = \
                self._verdict_s[name] * 1e3 / n
            # outcomes: the mean over the run's traces
            for key in ("replica_s", "slo_attain", "cold_starts",
                        "scale_events", "rejected"):
                m[f"fleet.{key}.{name}"] = statistics.mean(
                    self.outcome[name, k][key] for k in range(self.n_traces))
        m["sim.events"] = statistics.mean(self._events.values())
        m["sim.step_us"] = \
            tr.self_s["sim"] * 1e6 / tr.fn_calls["Environment.step"]
        return m


WORKLOADS = {w.name: w for w in (TrainHybrid, TrainProcess, ServeMixed,
                                 FleetFlash)}
