"""Bundle of everything a trained predictor needs: parameters for the two
guidance encoders, the distribution converter and the denoiser, plus the
diffusion schedule and the frozen channel normalization.  ``ModelConfig``
is the one description of the model: the encoders, the converter and the
denoiser read their sizes from it, it builds the schedule once, when it is
built (``ModelConfig.schedule``), and checkpoints store it as metadata.

A ``Model`` owns its parameters as one flat buffer, laid out in sorted
name order, whose dtype is the model's: ``Model.initialize``'s ``dtype``,
or the dtype of the arrays it is built from, so a float64 file loads as a
float64 model.  ``Model.params`` maps each name to a plain array view into
it, which the backbones read and the optimizer updates in place
(``training.adam_update``).

``Model.generate`` is the one generator: it turns windows into their runs'
explicit Gaussians, one array of raw statistics [runs, N, T', 5] per
window, with one batched reverse chain and one noise generator per window.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import checkpoint, data, diffusion, distribution, guidance
from . import numerics as nm
from .numerics import NumericsError


@dataclass(frozen=True)
class ModelConfig:
    t_obs: int = nm.setting(data.T_OBSERVED, 1)
    t_future: int = nm.setting(data.T_FUTURE, 1)
    conv_channels: int = nm.setting(32, 1)
    kernel: int = nm.setting(3, 3)
    d_phi: int = nm.setting(32, 1)
    d_psi: int = nm.setting(32, 1)
    denoiser_width: int = nm.setting(128, 1)
    denoiser_blocks: int = nm.setting(3, 0)
    step_dim: int = nm.setting(32, 2)
    neighbor_radius: float = nm.setting(data.NEIGHBOR_RADIUS, 0.0, nm.FLOAT32_MAX,
                                        above=True)
    k_total: int = nm.setting(200, 1)
    steps: int = nm.setting(100, 1)
    beta_start: float = nm.setting(1e-4, 0.0, 1.0, above=True)
    beta_end: float = nm.setting(0.05, 0.0, 1.0, above=True)

    def __post_init__(self):
        """Raise ValueError unless a model can be built from these settings."""
        nm.check_settings(self, "model")
        if self.step_dim % 2:
            # the sinusoidal step embedding has 2 * (step_dim // 2) columns
            raise ValueError(f"model step_dim must be even, got {self.step_dim}")
        if self.kernel % 2 == 0:
            # the converter masks tap kernel // 2; only for an odd kernel is
            # that the center tap, the one that reads the timestep itself
            # (and a kernel of 1 has no other tap, so reads no input at all)
            raise ValueError(f"model kernel must be odd, got {self.kernel}")
        if self.steps > self.k_total:
            raise ValueError(f"model steps must be at most k_total {self.k_total}, "
                             f"got {self.steps}")
        try:
            # frozen, so the schedule cannot go stale
            object.__setattr__(self, "_schedule", diffusion.build_schedule(
                self.k_total, self.beta_start, self.beta_end, self.steps))
        except NumericsError as exc:
            raise ValueError(f"model schedule: {exc}") from None

    @property
    def state_dim(self) -> int:
        """Width of one flattened diffusion state [t_future, 5]."""
        return self.t_future * distribution.STAT_CHANNELS

    def param_layout(self) -> dict[str, tuple]:
        """Every parameter's (shape, fan_in) by name, in initialization
        order; computed without random draws."""
        return {**guidance.guidance_layout(self),
                **distribution.converter_layout(self),
                **diffusion.denoiser_layout(self)}

    def schedule(self, steps: int | None = None) -> diffusion.Schedule:
        """The schedule these settings describe, built once; ``steps`` overrides S."""
        return self._schedule if steps is None else self._schedule.with_steps(steps)


class Model:
    def __init__(self, config: ModelConfig, params: dict[str, np.ndarray],
                 norm: distribution.NormStats | None = None):
        """``params``, arrays by every name of ``config.param_layout()``,
        are copied into the flat buffer, of their dtype (the widest, if they
        differ): ``spans`` holds each name's slice of it (sorted name order),
        ``params`` its view (layout order).  The schedule is ``config.schedule()``."""
        self.config = config
        layout = config.param_layout()
        self.spans, end = {}, 0
        for k in sorted(layout):
            self.spans[k] = slice(end, end + math.prod(layout[k][0]))
            end = self.spans[k].stop
        self.flat = np.concatenate([np.ravel(params[k]) for k in self.spans])
        self.params = {k: self.flat[self.spans[k]].reshape(shape)
                       for k, (shape, _) in layout.items()}
        self.schedule = config.schedule()
        self.norm = norm or distribution.NormStats.identity()

    @classmethod
    def initialize(cls, config: ModelConfig, seed: int, dtype=np.float32) -> "Model":
        """A new model of ``dtype``, its parameters drawn from ``seed``."""
        rng = np.random.default_rng([seed, 0xA11CE])
        return cls(config, nm.init_params(config.param_layout(), rng, dtype))

    def n_parameters(self) -> int:
        return self.flat.size

    def encode(self, windows) -> np.ndarray:
        return guidance.encode_windows(windows, self.params, self.config)

    def generate(self, windows, rngs: list[np.random.Generator], n_runs: int = 1,
                 steps: int | None = None,
                 chain_rng: np.random.Generator | None = None) -> list[np.ndarray]:
        """Each window's ``n_runs`` fields of denormalized raw statistics,
        one float64 array [n_runs, n_peds, T', 5] per window, from one
        reverse chain over every (window, run, pedestrian) row; ``steps``
        overrides the config's S.
        Window i draws its runs' initial noise from ``rngs[i]`` in run
        order, so with gamma = 0 its runs depend only on that generator's
        state, its own rows and the parameters.  Given ``chain_rng``, the
        chain is stochastic (ddpm-matching): each row block draws its noise
        from its own child of it, so runs depend on it and the row count.
        """
        if n_runs < 1:
            raise NumericsError("n_runs must be >= 1")
        sizes = [w.n_peds for w in windows]
        ends = np.cumsum(sizes)
        rows = np.concatenate([np.tile(np.arange(e - n, e), n_runs)
                               for n, e in zip(sizes, ends)])
        y = diffusion.reverse_chain(self.initial_noise(windows, rngs, n_runs),
                                    self.encode(windows)[rows], self.config.schedule(steps),
                                    self.params, self.config, chain_rng)
        blocks = np.split(distribution.denormalize_stats(y, self.norm),
                          n_runs * ends[:-1])
        return [block.reshape(n_runs, n, *y.shape[1:]) for block, n in zip(blocks, sizes)]

    def initial_noise(self, windows, rngs: list[np.random.Generator],
                      n_runs: int) -> np.ndarray:
        """The chain's initial states: each window's ``n_runs`` blocks of
        [n_peds, T', 5] standard normals from its generator, in run order."""
        shape = (self.config.t_future, distribution.STAT_CHANNELS)
        return np.concatenate([rng.standard_normal((w.n_peds, *shape))
                               for w, rng in zip(windows, rngs, strict=True)
                               for _ in range(n_runs)])

    # -- persistence --------------------------------------------------------

    def save(self, path, extra_meta: dict | None = None,
             extra_arrays: dict[str, np.ndarray] | None = None) -> None:
        meta = {
            "kind": "model",
            "config": asdict(self.config),
            "norm_mean": self.norm.mean.tolist(),
            "norm_scale": self.norm.scale.tolist(),
        }
        if extra_meta:
            meta.update(extra_meta)
        arrays = {f"param.{name}": p for name, p in self.params.items()}
        if extra_arrays:
            arrays.update(extra_arrays)
        checkpoint.save_container(path, meta, arrays)

    @classmethod
    def load(cls, path) -> tuple["Model", dict, dict[str, np.ndarray]]:
        """Load a checkpoint; returns (model, metadata, leftover arrays)."""
        meta, arrays, _hash = checkpoint.load_container(path)
        return cls.from_container(meta, arrays, path)

    @classmethod
    def from_container(cls, meta: dict, arrays: dict[str, np.ndarray],
                       path) -> tuple["Model", dict, dict[str, np.ndarray]]:
        """``load`` on a container already read from ``path``.  Metadata
        that does not describe a valid model, or ``param.*`` arrays whose
        names, shapes or dtypes differ from the config's layout, raise
        ``ContainerError``, and so does a parameter that is not finite in the
        model's dtype.  Arrays of other names, such as the
        ``schedule.*`` arrays that older checkpoints carry, are returned
        unread, and the ``gamma_mode`` their configs carry is ignored."""
        if not isinstance(meta, dict) or meta.get("kind") != "model":
            raise checkpoint.ContainerError(f"{path} is not a model checkpoint")
        rest = {k: a for k, a in arrays.items() if not k.startswith("param.")}
        try:
            config = dict(meta["config"])
            config.pop("gamma_mode", None)
            config = ModelConfig(**config)
            norm = distribution.NormStats(np.array(meta["norm_mean"]),
                                          np.array(meta["norm_scale"]))
        except KeyError as exc:
            raise checkpoint.ContainerError(f"{path} lacks model entry {exc}") from None
        except (TypeError, ValueError, NumericsError) as exc:
            raise checkpoint.ContainerError(f"{path}: bad model metadata: {exc}") from None
        shapes = {f"param.{k}": shape for k, (shape, _) in config.param_layout().items()}
        checkpoint.check_layout(path, arrays, "param.", shapes)
        model = cls(config, {k[len("param."):]: arrays[k] for k in shapes}, norm)
        if not np.isfinite(model.flat).all():
            bad = next(k for k, p in model.params.items() if not np.isfinite(p).all())
            raise checkpoint.ContainerError(f"{path}: param.{bad} is not finite")
        return model, meta, rest
