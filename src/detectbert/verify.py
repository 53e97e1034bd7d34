"""Independent numerical oracles.

Three families of checks that do not share code with the paths they verify:
finite-difference gradient checking, exact-vs-Nystrom attention error, and
the joint-vs-marginal entropy gap computed by brute-force enumeration over
dense probability tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from . import numerics as nm
from .attention import exact_attention, nystrom_attention
from .numerics import DEFAULT_PINV_ITERS, Tensor, no_grad


def scaled_model_params(config, seed: int, scale: float = 0.4):
    """Model parameters redrawn at a generic O(scale) magnitude for checks.

    Freshly initialized models carry 0.02-scale projections, which make
    attention-score gradients so small (~1e-7) that central differences
    drown in float64 roundoff.  Gradient checking therefore runs at a
    generic parameter scale where the signal dominates.
    """
    from .model import init_params

    params = init_params(config, seed)
    rng = np.random.default_rng(seed)
    for name, p in params.named_parameters():
        if name.endswith("ln_gamma"):
            p.value = 1.0 + scale * rng.standard_normal(p.value.shape)
        else:
            p.value = scale * rng.standard_normal(p.value.shape)
    return params


def attention_error(q, k, v, m: int, iters: int = DEFAULT_PINV_ITERS) -> float:
    """Relative Frobenius error of Nystrom attention against the exact path."""
    with no_grad():
        exact = exact_attention(q, k, v).value
        approx = nystrom_attention(q, k, v, m, iters).value
    denom = np.linalg.norm(exact)
    if denom == 0.0:
        return float(np.linalg.norm(approx - exact))
    return float(np.linalg.norm(approx - exact) / denom)


def gradcheck(fn, params, step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``fn`` evaluates a 1x1 loss tensor from the current values of
    ``params`` (a list of leaf tensors with ``requires_grad=True``).  Every
    coordinate of every parameter is perturbed by +/- ``step``.  Relative
    error uses max(|analytic|, |numeric|, 1e-8) as denominator.
    """
    if step <= 0:
        raise ValueError("gradcheck: step must be positive")
    for p in params:
        p.zero_grad()
    loss = fn()
    if not np.isfinite(loss.value).all():
        raise ValueError("gradcheck: loss is not finite")
    loss.backward()
    analytic = [
        np.zeros_like(p.value) if p.grad is None else p.grad.copy() for p in params
    ]

    worst = 0.0
    with no_grad():
        for p, ga in zip(params, analytic):
            flat = p.value.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                up = fn().item()
                flat[i] = orig - step
                down = fn().item()
                flat[i] = orig
                numeric = (up - down) / (2.0 * step)
                a = ga.reshape(-1)[i]
                err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
                if err > worst:
                    worst = err
    return worst


@dataclass
class JointDistribution:
    """Dense joint probability table over a few discrete variables."""

    probabilities: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=np.float64)
        if p.ndim < 1:
            raise ValueError("JointDistribution: need at least one variable")
        if np.any(p < 0):
            raise ValueError("JointDistribution: probabilities must be nonnegative")
        total = p.sum()
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"JointDistribution: probabilities sum to {total}, not 1")
        self.probabilities = p


def _entropy(p: np.ndarray) -> float:
    """Shannon entropy in nats with 0 * log 0 taken as 0."""
    p = p.reshape(-1)
    nz = p[p > 0]
    return float(-np.sum(nz * np.log(nz)))


def entropy_gap(joint: JointDistribution) -> dict:
    """Joint entropy, sum of marginal entropies, and their difference.

    The gap (marginal sum minus joint) is nonnegative for every
    distribution and zero exactly when the variables are independent.
    """
    p = joint.probabilities
    h_joint = _entropy(p)
    sum_marginals = 0.0
    for axis in range(p.ndim):
        other = tuple(i for i in range(p.ndim) if i != axis)
        marginal = p.sum(axis=other) if other else p
        sum_marginals += _entropy(marginal)
    return {
        "h_joint": h_joint,
        "sum_marginals": sum_marginals,
        "gap": sum_marginals - h_joint,
    }


def product_joint(marginals) -> JointDistribution:
    """Build the independent joint from per-variable marginal vectors."""
    table = None
    for m in marginals:
        m = np.asarray(m, dtype=np.float64)
        table = m if table is None else np.multiply.outer(table, m)
    return JointDistribution(table)


def entropy_gap_bruteforce(joint: JointDistribution) -> float:
    """Gap recomputed by explicit enumeration of all cells (test oracle)."""
    p = joint.probabilities
    h_joint = 0.0
    for idx in product(*(range(s) for s in p.shape)):
        v = p[idx]
        if v > 0:
            h_joint -= v * np.log(v)
    sum_marg = 0.0
    for axis in range(p.ndim):
        for value in range(p.shape[axis]):
            mass = 0.0
            for idx in product(*(range(s) for s in p.shape)):
                if idx[axis] == value:
                    mass += p[idx]
            if mass > 0:
                sum_marg -= mass * np.log(mass)
    return sum_marg - h_joint


def random_joint(rng, max_variables: int = 3, max_support: int = 4) -> JointDistribution:
    shape = tuple(
        int(rng.integers(2, max_support + 1))
        for _ in range(int(rng.integers(1, max_variables + 1)))
    )
    table = rng.random(shape)
    return JointDistribution(table / table.sum())


# ---------------------------------------------------------------------------
# named check suites (shared by the CLI `verify` subcommand and the tests)


@dataclass
class CheckResult:
    name: str
    passed: bool
    value: float
    bound: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}: {self.value:.3e} ({self.bound})"


def run_gradcheck_suite(seed: int = 0) -> list[CheckResult]:
    """Finite-difference checks: each primitive, then the full model."""
    from .model import Bag, ModelConfig, forward

    rng = np.random.default_rng(seed)
    results = []

    def weighted_builder(op, tensors, out_shape):
        w = rng.standard_normal(out_shape)
        return lambda: nm.sum_all(nm.mul(op(*tensors), Tensor(w)))

    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    s = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
    x = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
    gamma = Tensor(rng.standard_normal((1, 6)), requires_grad=True)
    beta = Tensor(rng.standard_normal((1, 6)), requires_grad=True)
    sm = Tensor(rng.standard_normal((7, 3)), requires_grad=True)
    pv = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
    prims = [
        ("matmul", weighted_builder(nm.matmul, [a, b], (3, 3)), [a, b]),
        ("softmax_rows", weighted_builder(nm.softmax_rows, [s], (3, 5)), [s]),
        ("layer_norm", weighted_builder(nm.layer_norm, [x, gamma, beta], (4, 6)), [x, gamma, beta]),
        ("segment_means", weighted_builder(lambda t: nm.segment_means(t, 3), [sm], (3, 3)), [sm]),
        ("iterative_pinv", weighted_builder(lambda t: nm.iterative_pinv(t, 6), [pv], (4, 4)), [pv]),
    ]
    for name, fn, tensors in prims:
        err = gradcheck(fn, tensors, step=1e-5)
        results.append(CheckResult(f"gradcheck/{name}", err < 1e-6, err, "< 1e-6"))

    import datetime as dt

    # n + 1 <= landmarks takes the exact branch; n + 1 > landmarks the Nystrom
    # branch, whose backward runs through the pinv in every block
    models = [
        ("full_model", 5, ModelConfig(d=8, num_blocks=2, heads=2, landmarks=16)),
        ("full_model_nystrom", 9, ModelConfig(d=8, num_blocks=2, heads=2, landmarks=4,
                                                pinv_iters=6)),
    ]
    for name, n, cfg in models:
        params = scaled_model_params(cfg, seed=seed + 1)
        bag = Bag("gradcheck", 1, dt.date(2019, 1, 1), rng.standard_normal((n, cfg.d)))
        tensors = [p for _, p in params.named_parameters()]
        err = gradcheck(lambda: forward(bag, params), tensors, step=1e-5)
        results.append(CheckResult(f"gradcheck/{name}", err < 1e-4, err, "< 1e-4"))
    return results


def run_attention_suite(seed: int = 0, landmarks=(8, 32, 64, 128), n: int = 128,
                        cases: int = 50) -> list[CheckResult]:
    """Exact-equivalence sample at m=n plus the error curve over landmarks."""
    rng = np.random.default_rng(seed)
    results = []
    worst = 0.0
    for _ in range(cases):
        rows = int(rng.integers(1, 33))
        d = int(rng.integers(1, 17))
        q, k, v = (rng.standard_normal((rows, d)) for _ in range(3))
        worst = max(worst, attention_error(q, k, v, m=rows))
    results.append(CheckResult("attention/exact_equivalence_m_eq_n", worst < 1e-5, worst, "< 1e-5"))

    ms = sorted(set(min(m, n) for m in landmarks))
    curve = {}
    for m in ms:
        errs = []
        for s in range(cases):
            r2 = np.random.default_rng(derive_suite_seed(seed, s))
            z = r2.standard_normal((n, 16))
            errs.append(attention_error(z, z, z, m))
        curve[m] = float(np.mean(errs))
    nonincreasing = all(curve[a] >= curve[b] - 1e-12 for a, b in zip(ms, ms[1:]))
    results.append(
        CheckResult(
            "attention/error_nonincreasing_in_landmarks "
            + " ".join(f"m={m}:{curve[m]:.2e}" for m in ms),
            nonincreasing,
            curve[ms[-1]],
            "curve nonincreasing",
        )
    )
    if ms[-1] == n:
        results.append(
            CheckResult("attention/full_landmark_error", curve[n] < 1e-5, curve[n], "< 1e-5")
        )
    return results


def derive_suite_seed(seed: int, case: int) -> int:
    return 1_000_003 * (seed + 1) + case


def run_entropy_suite(seed: int = 0, cases: int = 1000) -> list[CheckResult]:
    """Joint entropy never exceeds the sum of marginal entropies."""
    rng = np.random.default_rng(seed)
    results = []
    min_gap = np.inf
    for _ in range(cases):
        min_gap = min(min_gap, entropy_gap(random_joint(rng))["gap"])
    results.append(
        CheckResult("entropy/gap_nonnegative_random_joints", min_gap >= -1e-9, min_gap, ">= -1e-9")
    )
    worst = 0.0
    for _ in range(100):
        marginals = []
        for _ in range(int(rng.integers(1, 4))):
            m = rng.random(int(rng.integers(2, 5)))
            marginals.append(m / m.sum())
        worst = max(worst, abs(entropy_gap(product_joint(marginals))["gap"]))
    results.append(
        CheckResult("entropy/product_joints_zero_gap", worst < 1e-12, worst, "< 1e-12")
    )
    return results
