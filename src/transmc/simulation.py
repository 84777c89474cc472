"""Reproducible generators for the simulation designs: low-rank targets with
an exp-uniform spectrum, sources at controlled nuclear-norm contrasts from
the target, and noisy observation draws under the one sampling scheme that
ScenarioSpec.sampling names for every task: "uniform" (SS1) or "product"
(SS2, row-times-column marginals drawn per task).

Everything is a pure function of (spec, seed, replicate index). Matrices are
fixed per scenario seed; sampling and noise are redrawn per replicate from
derived seed streams.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from transmc.datasets import MaskedDataset

MAX_CONTRAST_DRAWS = 50  # contrast draws per source before gen_sources gives up
_MATRIX_STREAM = 0
_SAMPLING_STREAM = 1
_OBS_STREAM = 2


class GenerationError(ValueError):
    """Matrix generation could not satisfy the configured constraints."""


@dataclass(frozen=True)
class ScenarioSpec:
    """One simulation design: dimensions, entry cap, contrasts, sampling, sizes.

    contrasts holds the per-source nuclear-norm targets for A_k - A_0; its
    length is the source count K. sampling is the scheme of every task:
    "uniform" (SS1) or "product" (SS2, row-times-column marginals).
    """

    m1: int
    m2: int
    rank: int
    a_cap: float = 30.0
    contrasts: tuple[float, ...] = ()
    n0_frac: float = 0.2
    nk_frac: float = 0.1
    noise_sd: float = 1.0
    sampling: str = "uniform"
    seed: int = 0

    def __post_init__(self):
        if self.rank < 1 or self.rank > min(self.m1, self.m2):
            raise ValueError(f"rank {self.rank} not in [1, min(m1, m2)]")
        if not (0.0 < self.n0_frac <= 1.0 and 0.0 < self.nk_frac <= 1.0):
            raise ValueError("sample-size fractions must lie in (0, 1]")
        if not 0.0 <= self.noise_sd < math.inf:
            raise ValueError(f"noise_sd must be nonnegative and finite, got {self.noise_sd}")
        if not 0.0 < self.a_cap < math.inf:
            raise ValueError(f"a_cap must be positive and finite, got {self.a_cap}")
        if not all(0.0 <= h < math.inf for h in self.contrasts):
            raise ValueError("contrast targets must be nonnegative and finite")
        if self.seed < 0:
            raise ValueError(f"scenario seed must be at least 0, got {self.seed}")
        if self.sampling not in ("uniform", "product"):
            raise ValueError(f"unknown sampling scheme {self.sampling!r}; "
                             "use uniform or product")
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


def _random_orthonormal_pair(rng, m1, m2):
    g = rng.standard_normal((m1, m2))
    U, _, Vt = np.linalg.svd(g, full_matrices=False)
    return U, Vt


def gen_target(spec: ScenarioSpec) -> np.ndarray:
    """Rank-r target under the one spectrum law of every scenario (the
    `exp5_uniform` of older scenario files): singular values exp(5 * U[0,1])
    sorted descending, scaled down if needed so the largest entry magnitude
    is a_cap."""
    rng = np.random.default_rng(np.random.SeedSequence((spec.seed, _MATRIX_STREAM, 0)))
    U, Vt = _random_orthonormal_pair(rng, spec.m1, spec.m2)
    s = np.sort(np.exp(5.0 * rng.uniform(size=spec.rank)))[::-1]
    A0 = (U[:, : spec.rank] * s) @ Vt[: spec.rank]
    peak = float(np.max(np.abs(A0)))
    if peak > spec.a_cap:
        A0 *= spec.a_cap / peak
    return A0


def gen_sources(A0: np.ndarray, spec: ScenarioSpec):
    """Sources A_k = A_0 + D_k with ||D_k||_* scaled to the configured target.

    The contrast is drawn with uniform [0, 1] singular values on random
    orthonormal factors and rescaled exactly to the target; draws whose sum
    A_0 + D_k breaks the entry cap are rejected and redrawn, up to
    MAX_CONTRAST_DRAWS times each. Returns (matrices, achieved nuclear norms).
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
        for _ in range(MAX_CONTRAST_DRAWS):
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
                f"in {MAX_CONTRAST_DRAWS} attempts"
            )
    return matrices, achieved


def gen_sampling(spec: ScenarioSpec, task: int):
    """Sampling of one task under spec.sampling: None for uniform, else the
    (row, column) marginals of the product scheme, P[j, l] = rows[j] * cols[l],
    drawn uniform and normalized from the task's own seed stream."""
    if spec.sampling == "uniform":
        return None
    rng = np.random.default_rng(np.random.SeedSequence((spec.seed, _SAMPLING_STREAM, task)))
    r = rng.uniform(size=spec.m1)
    c = rng.uniform(size=spec.m2)
    return r / r.sum(), c / c.sum()


def sample_observations(A, marginals, n: int, noise_sd: float,
                        seed, task_id: int = 0) -> MaskedDataset:
    """n noisy entry observations Y = A[r, c] + N(0, noise_sd^2) at i.i.d.
    coordinates, uniform when marginals is None, else drawn from the
    (row, column) marginals that gen_sampling returns."""
    if n < 1:
        raise ValueError("need at least one observation")
    A = np.asarray(A, dtype=np.float64)
    m1, m2 = A.shape
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if marginals is None:
        rows = rng.integers(0, m1, size=n)
        cols = rng.integers(0, m2, size=n)
    else:
        rows = rng.choice(m1, size=n, p=marginals[0])
        cols = rng.choice(m2, size=n, p=marginals[1])
    values = A[rows, cols]
    if noise_sd > 0.0:
        values = values + noise_sd * rng.standard_normal(n)
    return MaskedDataset(m1, m2, rows, cols, values, task_id)


@dataclass(frozen=True)
class ScenarioData:
    """Everything one replicate of a scenario produces."""

    rep: int
    truth: np.ndarray
    source_truths: list
    achieved_contrasts: list
    target: MaskedDataset
    sources: list                  # MaskedDataset, task ids 1..K


def generate_scenario(spec: ScenarioSpec, rep: int = 0) -> ScenarioData:
    """Materialize one replicate: fixed matrices, fresh samples and noise."""
    A0 = gen_target(spec)
    source_truths, achieved = gen_sources(A0, spec)
    target = sample_observations(
        A0, gen_sampling(spec, 0), spec.n0, spec.noise_sd,
        (spec.seed, _OBS_STREAM, rep, 0), task_id=0,
    )
    sources = [
        sample_observations(
            Ak, gen_sampling(spec, k + 1), spec.nk, spec.noise_sd,
            (spec.seed, _OBS_STREAM, rep, k + 1), task_id=k + 1,
        )
        for k, Ak in enumerate(source_truths)
    ]
    return ScenarioData(
        rep=rep, truth=A0, source_truths=source_truths,
        achieved_contrasts=achieved, target=target, sources=sources,
    )


def synthetic_frames(*, m1: int, m2: int, n_frames: int, rank: int, missing: float,
                     noise_sd: float, drift: float, seed: int):
    """Synthetic partially observed frame sequence for the holdout pipeline.

    Frame t observes a uniform random (1 - missing) share of cells of a
    slowly drifting low-rank field, each exactly once, with additive noise.
    Returns (truths, observations) where observations[t] = (rows, cols, values).
    """
    if not (0.0 <= missing < 1.0):
        raise ValueError("missing fraction must lie in [0, 1)")
    base_spec = ScenarioSpec(m1=m1, m2=m2, rank=rank, seed=seed)
    base = gen_target(base_spec)
    # Pin the field amplitude just under the spec's default cap so the
    # observations carry a map-like signal well above the unit noise floor.
    base *= 0.8 * base_spec.a_cap / float(np.max(np.abs(base)))
    rng = np.random.default_rng(np.random.SeedSequence((seed, 3)))
    U, Vt = _random_orthonormal_pair(rng, m1, m2)
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


_UNIFORM_PRESETS = {
    # Reduced-scale designs sized so a laptop finishes a benchmark in minutes.
    "paper-5.1-small": ScenarioSpec(
        m1=60, m2=30, rank=3, contrasts=(80.0,) * 10,
        n0_frac=0.2, nk_frac=0.1, sampling="uniform", seed=11,
    ),
    "paper-5.2-small": ScenarioSpec(
        m1=60, m2=30, rank=3, contrasts=(80.0,) * 5 + (900.0,) * 5,
        n0_frac=0.2, nk_frac=0.15, sampling="uniform", seed=23,
    ),
    # Full-scale designs from the source experiments; long-running.
    "paper-5.1-full": ScenarioSpec(
        m1=300, m2=150, rank=10, contrasts=(400.0,) * 10,
        n0_frac=0.2, nk_frac=0.1, sampling="uniform", seed=11,
    ),
    "paper-5.2-full": ScenarioSpec(
        m1=300, m2=150, rank=10, contrasts=(400.0,) * 5 + (1200.0,) * 5,
        n0_frac=0.2, nk_frac=0.15, sampling="uniform", seed=23,
    ),
}

# Each design also comes as "<name>-ss2", its row-times-column sampling twin.
PRESETS: dict[str, ScenarioSpec] = {
    key: value
    for name, spec in _UNIFORM_PRESETS.items()
    for key, value in ((name, spec), (f"{name}-ss2", replace(spec, sampling="product")))
}

# The frame presets: synthetic_frames' arguments of each partially observed
# frame sequence that `simulate` writes for the holdout pipeline.
TEC_PRESETS = {
    "tec-synthetic-small": dict(m1=91, m2=180, n_frames=12, rank=5, missing=0.25,
                                noise_sd=1.0, drift=0.02, seed=42),
    "tec-synthetic-tiny": dict(m1=20, m2=30, n_frames=6, rank=2, missing=0.25,
                               noise_sd=0.5, drift=0.02, seed=42),
}
