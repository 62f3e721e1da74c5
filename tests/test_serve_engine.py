"""Tests for repro.serve.engine: continuous-batching pipeline serving on
the functional runtime, token-for-token identical to serial generate."""

import itertools

import numpy as np
import pytest

from repro.analysis.protocol import TraceRecorder, verify_trace
from repro.nn import GPT, GPTConfig, generate
from repro.obs import RuntimeTracer
from repro.runtime.stage import InferenceStage
from repro.runtime.transport import RankTransport
from repro.serve import PipelineServer, Request, RequestSpec, make_requests
from repro.serve.engine import TAG_ACT

CFG = GPTConfig(vocab_size=31, seq_len=32, n_layer=4, n_head=2, hidden=12)


def serial_reference(cfg, requests):
    """What each request would produce through plain `generate`."""
    model = GPT(cfg)
    return {
        req.rid: generate(model, req.prompt, req.max_new_tokens,
                          temperature=req.temperature, top_k=req.top_k,
                          rng=np.random.default_rng(req.seed),
                          greedy=req.greedy)
        for req in requests
    }


def fake_clock():
    counter = itertools.count()
    return lambda: float(next(counter))


class TestTokenEquivalence:
    @pytest.mark.parametrize("g_inter,max_batch",
                             [(1, 4), (2, 1), (2, 4), (3, 2), (4, 8),
                              (6, 3)])
    def test_matches_serial_generate(self, g_inter, max_batch):
        requests = make_requests(
            CFG, 8, RequestSpec(mean_prompt=5, mean_new_tokens=5, seed=3))
        expected = serial_reference(CFG, requests)
        server = PipelineServer(CFG, g_inter=g_inter, max_batch=max_batch)
        got = server.serve(requests)
        assert set(got) == set(expected)
        for rid in got:
            assert np.array_equal(got[rid], expected[rid]), rid
        # every stage drained its KV caches
        assert all(s.inflight_requests == 0 for s in server.stages)

    def test_without_continuous_batching_identical(self):
        """max_active=1 serves strictly one request at a time; outputs
        must not depend on the batching policy."""
        requests = make_requests(
            CFG, 6, RequestSpec(mean_prompt=4, mean_new_tokens=6, seed=9))
        expected = serial_reference(CFG, requests)
        got = PipelineServer(CFG, g_inter=2, max_batch=1,
                             max_active=1).serve(requests)
        for rid in got:
            assert np.array_equal(got[rid], expected[rid]), rid

    def test_greedy_request_is_deterministic_across_servers(self):
        req = Request(rid=0, prompt=np.array([1, 2, 3]), max_new_tokens=8,
                      greedy=True)
        a = PipelineServer(CFG, g_inter=2).serve([req])
        b = PipelineServer(CFG, g_inter=4, max_batch=2).serve([req])
        assert np.array_equal(a[0], b[0])

    def test_zero_token_request_returns_prompt(self):
        req = Request(rid=7, prompt=np.array([3, 1]), max_new_tokens=0)
        out = PipelineServer(CFG, g_inter=2).serve([req])
        assert np.array_equal(out[7], [3, 1])


class TestValidation:
    def test_prompt_plus_budget_over_seq_len_rejected(self):
        req = Request(rid=0, prompt=np.arange(1, 20), max_new_tokens=20)
        with pytest.raises(ValueError, match="seq_len"):
            PipelineServer(CFG, g_inter=2).serve([req])

    def test_duplicate_rid_rejected(self):
        reqs = [Request(rid=1, prompt=np.array([1]), max_new_tokens=1),
                Request(rid=1, prompt=np.array([2]), max_new_tokens=1)]
        with pytest.raises(ValueError, match="duplicate"):
            PipelineServer(CFG, g_inter=2).serve(reqs)

    def test_bad_sampling_params_rejected(self):
        with pytest.raises(ValueError, match="temperature"):
            PipelineServer(CFG).serve([Request(
                rid=0, prompt=np.array([1]), max_new_tokens=1,
                temperature=0.0)])
        with pytest.raises(ValueError, match="top_k"):
            PipelineServer(CFG).serve([Request(
                rid=0, prompt=np.array([1]), max_new_tokens=1, top_k=0)])

    def test_out_of_vocab_prompt_rejected(self):
        with pytest.raises(ValueError, match="vocabulary"):
            PipelineServer(CFG).serve([Request(
                rid=0, prompt=np.array([CFG.vocab_size]),
                max_new_tokens=1)])

    def test_bad_server_params_rejected(self):
        with pytest.raises(ValueError):
            PipelineServer(CFG, g_inter=0)
        with pytest.raises(ValueError):
            PipelineServer(CFG, max_batch=0)
        with pytest.raises(ValueError):
            PipelineServer(CFG, max_active=0)
        for bad in (0, -1):
            with pytest.raises(ValueError, match="pipeline_limit"):
                PipelineServer(CFG, g_inter=2, pipeline_limit=bad)


class TestObservability:
    def _serve_traced(self, g_inter):
        tracer = RuntimeTracer(clock=fake_clock())
        requests = make_requests(
            CFG, 4, RequestSpec(mean_prompt=4, mean_new_tokens=4, seed=1))
        PipelineServer(CFG, g_inter=g_inter, max_batch=2,
                       tracer=tracer).serve(requests)
        return tracer, requests

    @pytest.mark.parametrize("g_inter", [1, 3])
    def test_request_spans_emitted(self, g_inter):
        tracer, requests = self._serve_traced(g_inter)
        spans = [s for s in tracer.spans if s.stream == "serve"]
        assert spans and spans == tracer.spans
        by_rid = {req.rid: [s.name for s in spans
                            if s.microbatch == req.rid]
                  for req in requests}
        for req in requests:
            names = by_rid[req.rid]
            # one prefill, then decode2..decodeN, then the request span
            assert names[0] == "prefill"
            assert names[-1] == "request"
            assert names[1:-1] == [f"decode{t}"
                                   for t in range(1, req.max_new_tokens)]

    def test_disabled_tracer_records_nothing(self):
        tracer = RuntimeTracer(enabled=False, clock=fake_clock())
        requests = make_requests(CFG, 2)
        PipelineServer(CFG, g_inter=2, tracer=tracer).serve(requests)
        assert tracer.spans == []


class TestProtocol:
    def test_transport_trace_is_clean(self):
        recorder = TraceRecorder()
        requests = make_requests(
            CFG, 5, RequestSpec(mean_prompt=4, mean_new_tokens=5, seed=2))
        PipelineServer(CFG, g_inter=3, max_batch=2,
                       recorder=recorder).serve(requests)
        assert verify_trace(recorder) == []
        assert recorder.events


class TestGroupForward:
    """``InferenceStage.forward`` over a decode group must give every row
    exactly (not approximately) what the ``b == 1`` call gives it."""

    @staticmethod
    def _pipeline(g_inter=3):
        return [InferenceStage(CFG, i, g_inter) for i in range(g_inter)]

    @staticmethod
    def _run(stages, rids, x):
        outs = []
        for stage in stages:
            x = stage.forward(rids, x)
            outs.append(x)
        return outs

    @pytest.mark.parametrize("b", [1, 2, 5, 8])
    def test_rows_bit_identical_to_single_request_calls(self, b):
        rng = np.random.default_rng(b)
        grouped, single = self._pipeline(), self._pipeline()
        rids = list(range(10, 10 + b))
        for rid in rids:
            # prompts of different lengths: rows sit at different cache
            # lengths for the whole test
            prompt = rng.integers(0, CFG.vocab_size, (1, 1 + 3 * (rid % 4)))
            for stages in (grouped, single):
                for stage in stages:
                    stage.start_request(rid)
                self._run(stages, [rid], prompt)
        for _ in range(4):
            toks = rng.integers(0, CFG.vocab_size, (b, 1))
            outs = self._run(grouped, rids, toks)
            assert outs[-1].shape == (b, 1, CFG.vocab_size)
            for i, rid in enumerate(rids):
                # first, mid and last stage outputs all match exactly
                for got, want in zip(outs,
                                     self._run(single, [rid], toks[i:i + 1])):
                    assert np.array_equal(got[i:i + 1], want), rid

    def test_duplicate_rid_in_group_rejected(self):
        stage = InferenceStage(CFG, 0, 2)
        stage.start_request(0)
        stage.forward([0], np.array([[1, 2]]))
        with pytest.raises(ValueError, match="duplicate"):
            stage.forward([0, 0], np.array([[3], [4]]))

    def test_one_forward_per_act_packet(self, monkeypatch):
        """Each stage of a 2-stage server runs one forward per TAG_ACT
        packet: rank 0 per packet it sends, rank 1 per packet it gets."""
        acts = []
        send = RankTransport.send

        def counting_send(self, src, dst, tag, microbatch, data=None):
            if tag == TAG_ACT:
                acts.append(len(data))
            return send(self, src, dst, tag, microbatch, data)

        monkeypatch.setattr(RankTransport, "send", counting_send)
        server = PipelineServer(CFG, g_inter=2, max_batch=4)
        calls = [0, 0]
        for i, stage in enumerate(server.stages):
            def counted(rids, x, forward=stage.forward, i=i):
                calls[i] += 1
                return forward(rids, x)
            monkeypatch.setattr(stage, "forward", counted)
        requests = make_requests(
            CFG, 6, RequestSpec(mean_prompt=4, mean_new_tokens=6, seed=4))
        got = server.serve(requests)
        expected = serial_reference(CFG, requests)
        assert all(np.array_equal(got[r], expected[r]) for r in expected)
        assert max(acts) > 1  # decode groups really were batched
        assert calls == [len(acts), len(acts)]
