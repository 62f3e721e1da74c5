"""Baseline frameworks: Megatron-LM and DeepSpeed as performance models.

Public surface:

* :class:`ThreeDConfig` — a 3D-parallel configuration (Table II row);
* :func:`simulate_baseline_batch` / :class:`BaselineResult`;
* the intra-layer (tensor-parallel) layers and :class:`Zero1AdamW`.

The static flushing schedules themselves (1F1B, GPipe) live in
:mod:`repro.sched`: their per-rank orders come from
:func:`repro.sched.builders.flushing_orders`, and
:class:`repro.sched.ScheduledPipelineTrainer` trains them with real
numerics.
"""

from .config import ThreeDConfig
from .intra_layer import (
    ColumnParallelLinear,
    CommCounter,
    RowParallelLinear,
    TensorParallelAttention,
    TensorParallelMLP,
)
from .frameworks import (
    BaselineResult,
    baseline_stage_costs,
    check_baseline_memory,
    simulate_baseline_batch,
)
from .zero1 import Zero1AdamW

__all__ = [
    "ThreeDConfig",
    "ColumnParallelLinear",
    "CommCounter",
    "RowParallelLinear",
    "TensorParallelAttention",
    "TensorParallelMLP",
    "BaselineResult",
    "baseline_stage_costs",
    "check_baseline_memory",
    "simulate_baseline_batch",
    "Zero1AdamW",
]
