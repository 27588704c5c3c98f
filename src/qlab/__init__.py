"""Desk-scale lab for studying how training dynamics shape post-training
quantization error: trains small decoder-only transformers under
configurable schedules, quantizes checkpoints with RTN and GPTQ at low
bit widths, and tracks degradation metrics along the trajectory."""

__version__ = "0.1.0"

from .data import Batch, load_corpus, next_batch, split
from .model import Checkpoint, ModelConfig, backward, forward, init, loss, loss_and_grads
from .optim import (
    OptimConfig,
    OptimState,
    ScheduleSpec,
    adamc_step,
    adamw_step,
    clip_grad_norm,
    schedule_value,
    train_loop,
)
from .averaging import AveragingWindow, lawa_push, soup
from .quant import (
    QuantConfig,
    QuantizedLinear,
    QuantizedModel,
    dequantize,
    gptq_quantize,
    gram,
    group_params,
    quantize_model,
    reconstruction_error,
    rtn_quantize,
)
from .metrics import (
    MetricRecord,
    delta_ptq,
    eval_accuracy,
    eval_ce,
    relative_acc_drop,
    relative_ce_error,
)
