"""Tests for the compiled 1F1B / GPipe flushing schedules — the
baselines' pipeline algorithm with real numerics, run by
:class:`~repro.sched.ScheduledPipelineTrainer`."""

import numpy as np
import pytest

from repro.nn import GPTConfig, LMBatches, SyntheticCorpus
from repro.runtime import AxoNNTrainer, SerialTrainer
from repro.sched import ScheduledPipelineTrainer

CFG = GPTConfig(vocab_size=19, seq_len=8, n_layer=4, n_head=2, hidden=12,
                dropout=0.0, init_seed=11)


def make_batches(batch_size=8, seed=0):
    corpus = SyntheticCorpus(CFG.vocab_size, 4000, seed=seed)
    return LMBatches(corpus, batch_size=batch_size, seq_len=CFG.seq_len)


class TestFlushingTrainer:
    def test_invalid_schedule(self):
        with pytest.raises(ValueError):
            ScheduledPipelineTrainer(CFG, 2, 1, 2, schedule="wave")
        with pytest.raises(ValueError):
            ScheduledPipelineTrainer(CFG, 2, 1, 0)

    @pytest.mark.parametrize("schedule", ["1f1b", "gpipe"])
    @pytest.mark.parametrize("g_inter,g_data,mbs", [
        (2, 1, 2), (3, 1, 1), (2, 2, 2), (4, 2, 1),
    ])
    def test_matches_serial(self, schedule, g_inter, g_data, mbs):
        """Flushing preserves exact optimizer semantics: same losses as
        the serial reference at every grid shape."""
        batches = make_batches()
        serial = SerialTrainer(CFG, lr=1e-3)
        flush = ScheduledPipelineTrainer(CFG, g_inter=g_inter,
                                         g_data=g_data, microbatch_size=mbs,
                                         lr=1e-3, schedule=schedule)
        for i in range(3):
            x, y = batches.batch(i)
            s = serial.train_batch(x, y)
            f = flush.train_batch(x, y)
            assert f == pytest.approx(s, rel=2e-4)

    def test_matches_message_driven_axonn(self):
        """The three schedulers (serial, message-driven, static flush)
        compute the identical update — the paper's comparison is purely
        about time."""
        batches = make_batches()
        axonn = AxoNNTrainer(CFG, g_inter=2, g_data=2, microbatch_size=2,
                             lr=1e-3)
        flush = ScheduledPipelineTrainer(CFG, g_inter=2, g_data=2,
                                         microbatch_size=2, lr=1e-3)
        for i in range(3):
            x, y = batches.batch(i)
            a = axonn.train_batch(x, y).loss
            f = flush.train_batch(x, y)
            assert f == pytest.approx(a, rel=1e-5)
        a_state = axonn.gather_state()
        f_state = flush.gather_state()
        for k in a_state:
            np.testing.assert_allclose(f_state[k], a_state[k], rtol=1e-5,
                                       atol=1e-7, err_msg=k)

    def test_gpipe_equals_1f1b_numerically(self):
        batches = make_batches()
        a = ScheduledPipelineTrainer(CFG, 3, 1, 1, schedule="1f1b")
        b = ScheduledPipelineTrainer(CFG, 3, 1, 1, schedule="gpipe")
        for i in range(2):
            x, y = batches.batch(i)
            la = a.train_batch(x, y)
            lb = b.train_batch(x, y)
            assert la == pytest.approx(lb, rel=1e-6)

    def test_checkpointed_flush_matches(self):
        batches = make_batches()
        plain = ScheduledPipelineTrainer(CFG, 2, 1, 2)
        ckpt = ScheduledPipelineTrainer(CFG, 2, 1, 2,
                                        checkpoint_activations=True)
        x, y = batches.batch(0)
        assert ckpt.train_batch(x, y) == pytest.approx(
            plain.train_batch(x, y), rel=1e-5)

    def test_training_converges(self):
        batches = make_batches()
        t = ScheduledPipelineTrainer(CFG, 2, 2, 2, lr=5e-3)
        losses = [t.train_batch(*batches.batch(i)) for i in range(15)]
        assert np.mean(losses[-3:]) < np.mean(losses[:3])
