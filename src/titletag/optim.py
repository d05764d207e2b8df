"""Training configuration, the shared training loop, the one Adam rule
(adam_step, which the CRF also runs), and the dense-parameter optimizers and
gradient clipping of the recurrent models.

Parameters are updated in place; callers pass the same parameter list in the
same order on every step. Gradient buffers and optimizer state take each
parameter's dtype, so float32 parameters train in float32.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import TrainingDivergedError, check_at_least

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainConfig:
    """Shared training knobs; the defaults follow the tuned CRF values."""

    learning_rate: float = 0.1
    batch_size: int = 32
    epochs: int = 10
    optimizer: str = "sgd"  # "sgd" or "adam"
    seed: int = 0
    word_dropout: float = 0.05
    variational_dropout: float = 0.5
    clip_norm: float | None = 5.0  # used by dense_update: the recurrent taggers and the biLM

    def __post_init__(self) -> None:
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        check_at_least(1, batch_size=self.batch_size)
        check_at_least(0, epochs=self.epochs, seed=self.seed)
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"optimizer must be 'sgd' or 'adam', got {self.optimizer!r}")
        for name in ("word_dropout", "variational_dropout"):
            p = getattr(self, name)
            if not 0.0 <= p < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {p}")
        if self.clip_norm is not None and not 0 < self.clip_norm < math.inf:
            raise ValueError(f"clip_norm must be positive or None, got {self.clip_norm}")


def fit(name: str, n: int, cfg: TrainConfig, rng: np.random.Generator,
        batch: Callable[[list[int]], tuple[float, int]],
        update: Callable[[float], float | None], history: list[float]) -> None:
    """Mini-batch training loop over n examples.

    Each epoch draws a fresh permutation from rng and cuts it into batches.
    batch(indices) accumulates gradients and returns (loss sum, count);
    update(1 / count) then applies them and returns the gradient norm before
    clipping, or None if it does not clip. The mean loss per counted unit of
    each epoch is appended to history and logged at INFO, with the mean
    pre-clip norm and the share of clipped steps when update reports norms.
    A non-finite batch loss raises TrainingDivergedError before any update.
    """
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss, epoch_count = 0.0, 0
        norms = []
        for lo in range(0, n, cfg.batch_size):
            loss, count = batch([int(j) for j in order[lo : lo + cfg.batch_size]])
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss in epoch {epoch + 1}, batch {lo // cfg.batch_size + 1}"
                )
            norm = update(1.0 / count)
            if norm is not None:
                norms.append(norm)
            epoch_loss += loss
            epoch_count += count
        mean_loss = epoch_loss / epoch_count
        history.append(mean_loss)
        clipping = ""
        if norms:
            clipped = sum(cfg.clip_norm is not None and norm > cfg.clip_norm for norm in norms)
            clipping = (f", mean pre-clip gradient norm {sum(norms) / len(norms):.6g}"
                        f", clipped share {clipped / len(norms):.3f}")
        log.info("%s epoch %d/%d: mean loss %.6f%s", name, epoch + 1, cfg.epochs, mean_loss,
                 clipping)


def global_norm(grads: list[np.ndarray]) -> float:
    """The L2 norm of all grads together. Each buffer's sum of squares is one
    dot product in its own dtype, with no g * g temporary; a float32 sum
    that overflows is summed again in float64."""
    total = 0.0
    for g in grads:
        square = float(np.vdot(g, g))
        if not math.isfinite(square):
            g = g.astype(np.float64)
            square = float(np.vdot(g, g))
        total += square
    return math.sqrt(total)


def clip_grads_(grads: list[np.ndarray], max_norm: float | None) -> float:
    """Scale grads in place to the given global norm; returns the unclipped norm."""
    norm = global_norm(grads)
    if max_norm is not None and norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for g in grads:
            g *= scale
    return norm


class Sgd:
    def __init__(self, lr: float):
        self.lr = lr

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        for p, g in zip(params, grads):
            p -= self.lr * g


ADAM_B1, ADAM_B2, ADAM_EPS = 0.9, 0.999, 1e-8


def adam_step(param: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray, t: int,
              lr: float) -> None:
    """One Adam step (Kingma & Ba 2015) at step count t, in place on param
    and on its first and second moments m and v."""
    m *= ADAM_B1
    m += (1.0 - ADAM_B1) * grad
    v *= ADAM_B2
    v += (1.0 - ADAM_B2) * grad * grad
    param -= lr * (m / (1.0 - ADAM_B1**t)) / (np.sqrt(v / (1.0 - ADAM_B2**t)) + ADAM_EPS)


class Adam:
    def __init__(self, lr: float, params: list[np.ndarray]):
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        self.t += 1
        for p, g, m, v in zip(params, grads, self.m, self.v):
            adam_step(p, g, m, v, self.t, self.lr)


def dense_update(cfg: TrainConfig, params: list[np.ndarray]):
    """Gradient buffers for params, keyed by id(param), and the update step
    of fit that applies them.

    The step scales the accumulated grads, clips them to cfg.clip_norm, runs
    the configured optimizer, zeroes the buffers for the next batch and
    returns the gradient norm before clipping.
    """
    lr = cfg.learning_rate
    opt = Adam(lr, params) if cfg.optimizer == "adam" else Sgd(lr)
    grads = [np.zeros_like(p) for p in params]

    def update(scale: float) -> float:
        for g in grads:
            g *= scale
        norm = clip_grads_(grads, cfg.clip_norm)
        opt.step(params, grads)
        for g in grads:
            g.fill(0.0)
        return norm

    return {id(p): g for p, g in zip(params, grads)}, update
