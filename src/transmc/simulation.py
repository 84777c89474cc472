"""Reproducible generators for the simulation designs: low-rank targets with
an exp-uniform spectrum, sources at controlled nuclear-norm contrasts from
the target, uniform and row-times-column sampling schemes, and noisy
observation draws.

Everything is a pure function of (spec, seed, replicate index). Matrices are
fixed per scenario seed; sampling and noise are redrawn per replicate from
derived seed streams.
"""

from dataclasses import dataclass

import numpy as np

from transmc.datasets import MaskedDataset

CONTRAST_BAND = 0.025  # relative tolerance on achieved contrast nuclear norms
_MATRIX_STREAM = 0
_SAMPLING_STREAM = 1
_OBS_STREAM = 2


class GenerationError(RuntimeError):
    """Matrix generation could not satisfy the configured constraints."""


@dataclass(frozen=True)
class SamplingModel:
    """Entry-sampling distribution for one task.

    kind "uniform": every cell has probability 1/(m1 m2).
    kind "row_col_product": P[j, l] = row_probs[j] * col_probs[l].
    """

    kind: str
    m1: int
    m2: int
    row_probs: np.ndarray | None = None
    col_probs: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("uniform", "row_col_product"):
            raise ValueError(f"unknown sampling kind {self.kind!r}")
        if self.kind == "row_col_product":
            r, c = np.asarray(self.row_probs), np.asarray(self.col_probs)
            if r.shape != (self.m1,) or c.shape != (self.m2,):
                raise ValueError("marginal probability vectors have wrong length")
            if np.any(r < 0) or np.any(c < 0):
                raise ValueError("negative sampling probabilities")
            if abs(r.sum() - 1.0) > 1e-10 or abs(c.sum() - 1.0) > 1e-10:
                raise ValueError("marginal probabilities must sum to 1")

    def draw(self, rng: np.random.Generator, n: int):
        """n i.i.d. coordinate draws (with replacement)."""
        if self.kind == "uniform":
            return rng.integers(0, self.m1, size=n), rng.integers(0, self.m2, size=n)
        rows = rng.choice(self.m1, size=n, p=self.row_probs)
        cols = rng.choice(self.m2, size=n, p=self.col_probs)
        return rows, cols


@dataclass(frozen=True)
class ScenarioSpec:
    """One simulation design: dimensions, spectrum, contrasts, sampling, sizes.

    contrasts holds the per-source nuclear-norm targets for A_k - A_0; its
    length is the source count K. sampling applies to every task when given
    as a string, or per task (target first) as a sequence of K + 1 kinds.
    """

    m1: int
    m2: int
    rank: int
    a_cap: float = 30.0
    spectrum_law: str = "exp5_uniform"
    contrasts: tuple[float, ...] = ()
    n0_frac: float = 0.2
    nk_frac: float = 0.1
    noise_sd: float = 1.0
    sampling: str | tuple[str, ...] = "uniform"
    seed: int = 0

    def __post_init__(self):
        if self.rank < 1 or self.rank > min(self.m1, self.m2):
            raise ValueError(f"rank {self.rank} not in [1, min(m1, m2)]")
        if not (0.0 < self.n0_frac <= 1.0 and 0.0 < self.nk_frac <= 1.0):
            raise ValueError("sample-size fractions must lie in (0, 1]")
        if self.noise_sd < 0.0:
            raise ValueError("noise_sd must be nonnegative")
        if self.a_cap <= 0.0:
            raise ValueError("a_cap must be positive")
        if self.spectrum_law != "exp5_uniform":
            raise ValueError(f"unknown spectrum law {self.spectrum_law!r}")
        if any(h < 0 for h in self.contrasts):
            raise ValueError("contrast targets must be nonnegative")
        if not isinstance(self.sampling, str) and len(self.sampling) != self.K + 1:
            raise ValueError("per-task sampling needs K + 1 kinds")
        object.__setattr__(self, "contrasts", tuple(float(h) for h in self.contrasts))

    @property
    def K(self) -> int:
        return len(self.contrasts)

    @property
    def n0(self) -> int:
        return max(1, round(self.n0_frac * self.m1 * self.m2))

    @property
    def nk(self) -> int:
        return max(1, round(self.nk_frac * self.m1 * self.m2))

    def sampling_kind(self, task: int) -> str:
        if isinstance(self.sampling, str):
            return self.sampling
        return self.sampling[task]


def _random_orthonormal_pair(rng, m1, m2):
    g = rng.standard_normal((m1, m2))
    U, _, Vt = np.linalg.svd(g, full_matrices=False)
    return U, Vt


def gen_target(spec: ScenarioSpec) -> np.ndarray:
    """Rank-r target with singular values exp(5 * U[0,1]) sorted descending,
    scaled down if needed so the largest entry magnitude is a_cap."""
    rng = np.random.default_rng(np.random.SeedSequence((spec.seed, _MATRIX_STREAM, 0)))
    U, Vt = _random_orthonormal_pair(rng, spec.m1, spec.m2)
    s = np.sort(np.exp(5.0 * rng.uniform(size=spec.rank)))[::-1]
    A0 = (U[:, : spec.rank] * s) @ Vt[: spec.rank]
    peak = float(np.max(np.abs(A0)))
    if peak > spec.a_cap:
        A0 *= spec.a_cap / peak
    return A0


def gen_sources(A0: np.ndarray, spec: ScenarioSpec, max_retries: int = 50):
    """Sources A_k = A_0 + D_k with ||D_k||_* scaled to the configured target.

    The contrast is drawn with uniform [0, 1] singular values on random
    orthonormal factors and rescaled exactly to the target; draws whose sum
    A_0 + D_k breaks the entry cap are rejected and redrawn, up to
    max_retries times each. Returns (matrices, achieved nuclear norms).
    """
    matrices, achieved = [], []
    m = min(spec.m1, spec.m2)
    for k, h in enumerate(spec.contrasts):
        rng = np.random.default_rng(
            np.random.SeedSequence((spec.seed, _MATRIX_STREAM, k + 1))
        )
        if h == 0.0:
            matrices.append(A0.copy())
            achieved.append(0.0)
            continue
        for attempt in range(max_retries):
            U, Vt = _random_orthonormal_pair(rng, spec.m1, spec.m2)
            s = rng.uniform(size=m)
            s *= h / s.sum()
            delta = (U * s) @ Vt
            Ak = A0 + delta
            if np.max(np.abs(Ak)) <= spec.a_cap:
                matrices.append(Ak)
                achieved.append(float(np.linalg.svd(delta, compute_uv=False).sum()))
                break
        else:
            raise GenerationError(
                f"source {k + 1}: no contrast draw with ||A_k||_inf <= {spec.a_cap} "
                f"in {max_retries} attempts"
            )
    return matrices, achieved


def gen_sampling(spec: ScenarioSpec, task: int) -> SamplingModel:
    """Sampling model for one task; product marginals are uniform draws, normalized."""
    kind = spec.sampling_kind(task)
    if kind == "uniform":
        return SamplingModel(kind="uniform", m1=spec.m1, m2=spec.m2)
    if kind == "product":
        rng = np.random.default_rng(
            np.random.SeedSequence((spec.seed, _SAMPLING_STREAM, task))
        )
        r = rng.uniform(size=spec.m1)
        c = rng.uniform(size=spec.m2)
        return SamplingModel(
            kind="row_col_product", m1=spec.m1, m2=spec.m2,
            row_probs=r / r.sum(), col_probs=c / c.sum(),
        )
    raise ValueError(f"unknown sampling kind {kind!r} for task {task}")


def sample_observations(A, sampling: SamplingModel, n: int, noise_sd: float,
                        seed, task_id: int = 0) -> MaskedDataset:
    """n noisy entry observations Y = A[r, c] + N(0, noise_sd^2), i.i.d. coordinates."""
    if n < 1:
        raise ValueError("need at least one observation")
    A = np.asarray(A, dtype=np.float64)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    rows, cols = sampling.draw(rng, n)
    values = A[rows, cols]
    if noise_sd > 0.0:
        values = values + noise_sd * rng.standard_normal(n)
    return MaskedDataset(A.shape[0], A.shape[1], rows, cols, values, task_id)


@dataclass(frozen=True)
class ScenarioData:
    """Everything one replicate of a scenario produces."""

    spec: ScenarioSpec
    rep: int
    truth: np.ndarray
    source_truths: list
    achieved_contrasts: list
    sampling_models: list          # task 0 first
    target: MaskedDataset
    sources: list                  # MaskedDataset, task ids 1..K


def scenario_matrices(spec: ScenarioSpec):
    A0 = gen_target(spec)
    sources, achieved = gen_sources(A0, spec)
    return A0, sources, achieved


def generate_scenario(spec: ScenarioSpec, rep: int = 0) -> ScenarioData:
    """Materialize one replicate: fixed matrices, fresh samples and noise."""
    A0, source_truths, achieved = scenario_matrices(spec)
    models = [gen_sampling(spec, t) for t in range(spec.K + 1)]
    target = sample_observations(
        A0, models[0], spec.n0, spec.noise_sd,
        (spec.seed, _OBS_STREAM, rep, 0), task_id=0,
    )
    sources = [
        sample_observations(
            Ak, models[k + 1], spec.nk, spec.noise_sd,
            (spec.seed, _OBS_STREAM, rep, k + 1), task_id=k + 1,
        )
        for k, Ak in enumerate(source_truths)
    ]
    return ScenarioData(
        spec=spec, rep=rep, truth=A0, source_truths=source_truths,
        achieved_contrasts=achieved, sampling_models=models,
        target=target, sources=sources,
    )


def synthetic_frames(m1: int = 91, m2: int = 180, n_frames: int = 12, rank: int = 5,
                     missing: float = 0.25, noise_sd: float = 1.0, drift: float = 0.02,
                     a_cap: float = 30.0, seed: int = 0):
    """Synthetic partially observed frame sequence for the holdout pipeline.

    Frame t observes a uniform random (1 - missing) share of cells of a
    slowly drifting low-rank field, each exactly once, with additive noise.
    Returns (truths, observations) where observations[t] = (rows, cols, values).
    """
    if not (0.0 <= missing < 1.0):
        raise ValueError("missing fraction must lie in [0, 1)")
    base_spec = ScenarioSpec(m1=m1, m2=m2, rank=rank, a_cap=a_cap, seed=seed)
    base = gen_target(base_spec)
    # Pin the field amplitude just under the cap so the observations carry a
    # map-like signal well above the unit noise floor.
    base *= 0.8 * a_cap / float(np.max(np.abs(base)))
    rng = np.random.default_rng(np.random.SeedSequence((seed, 3)))
    g = rng.standard_normal((m1, m2))
    U, _, Vt = np.linalg.svd(g, full_matrices=False)
    direction = (U[:, :2] * np.array([1.0, 0.5])) @ Vt[:2]
    direction *= float(np.linalg.norm(base)) / float(np.linalg.norm(direction))

    n_obs = int(round((1.0 - missing) * m1 * m2))
    truths, observations = [], []
    for t in range(n_frames):
        A_t = base + drift * t * direction
        flat = rng.choice(m1 * m2, size=n_obs, replace=False)
        rows, cols = flat // m2, flat % m2
        values = A_t[rows, cols]
        if noise_sd > 0.0:
            values = values + noise_sd * rng.standard_normal(n_obs)
        truths.append(A_t)
        observations.append((rows.astype(np.int64), cols.astype(np.int64), values))
    return truths, observations


PRESETS: dict[str, ScenarioSpec] = {
    # Reduced-scale designs sized so a laptop finishes a benchmark in minutes.
    "paper-5.1-small": ScenarioSpec(
        m1=60, m2=30, rank=3, contrasts=(80.0,) * 10,
        n0_frac=0.2, nk_frac=0.1, sampling="uniform", seed=11,
    ),
    "paper-5.1-small-ss2": ScenarioSpec(
        m1=60, m2=30, rank=3, contrasts=(80.0,) * 10,
        n0_frac=0.2, nk_frac=0.1, sampling="product", seed=11,
    ),
    "paper-5.2-small": ScenarioSpec(
        m1=60, m2=30, rank=3, contrasts=(80.0,) * 5 + (900.0,) * 5,
        n0_frac=0.2, nk_frac=0.15, sampling="uniform", seed=23,
    ),
    "paper-5.2-small-ss2": ScenarioSpec(
        m1=60, m2=30, rank=3, contrasts=(80.0,) * 5 + (900.0,) * 5,
        n0_frac=0.2, nk_frac=0.15, sampling="product", seed=23,
    ),
    # Full-scale designs from the source experiments; long-running.
    "paper-5.1-full": ScenarioSpec(
        m1=300, m2=150, rank=10, contrasts=(400.0,) * 10,
        n0_frac=0.2, nk_frac=0.1, sampling="uniform", seed=11,
    ),
    "paper-5.1-full-ss2": ScenarioSpec(
        m1=300, m2=150, rank=10, contrasts=(400.0,) * 10,
        n0_frac=0.2, nk_frac=0.1, sampling="product", seed=11,
    ),
    "paper-5.2-full": ScenarioSpec(
        m1=300, m2=150, rank=10, contrasts=(400.0,) * 5 + (1200.0,) * 5,
        n0_frac=0.2, nk_frac=0.15, sampling="uniform", seed=23,
    ),
    "paper-5.2-full-ss2": ScenarioSpec(
        m1=300, m2=150, rank=10, contrasts=(400.0,) * 5 + (1200.0,) * 5,
        n0_frac=0.2, nk_frac=0.15, sampling="product", seed=23,
    ),
}
