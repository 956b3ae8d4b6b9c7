"""RECOPT: sampling-based optimizer choosing between indexes and blocked MM.

Implements Section 4:

1. build each candidate index in full (construction is cheap relative to
   traversal — Fig. 2);
2. draw a random user sample (default 1 %, floored at ``min_sample`` so
   batched kernels see real blocking effects — the paper's "at least four
   L2 cache lines" requirement, expressed as a user-count floor here);
3. time blocked MM on the sample, then each index on the sample.  For
   *point-query* indexes (``batching=False``) a one-sample T-test on the
   per-user times against MM's per-user mean enables early stopping
   (Section 4.1's optimization); batched indexes always measure the full
   sample;
4. extrapolate total runtimes ``C_I + Q_I·n`` vs ``M_I·n``, pick the
   minimum, serve the remaining users with the winner, and reuse the
   sample's results.

The T-test uses the normal approximation to the t distribution, via
``statistics.NormalDist`` — scipy is not a dependency of this reproduction.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from repro.indexes.base import Strategy, TopK
from repro.indexes.brute_force import BlockedMM
from repro.mf.models import MFModel

# Minimum per-user measurements before the T-test may stop.  The paper
# uses the CLT at large samples; at reproduction scale (10³–10⁴ users vs
# the paper's 10⁵–10⁶) a 30-user floor would already be a multiple of the
# paper's 0.5 % sample fraction, so the floor is kept proportionally small.
_MIN_TTEST_USERS = 16
_TTEST_ALPHA = 0.05


@dataclass
class OptimizerReport:
    """What RECOPT decided and what it cost."""

    chosen: str
    est_totals: dict[str, float]  # strategy name -> estimated total seconds
    build_times: dict[str, float]  # index name -> construction seconds
    sample_size: int
    sample_users_measured: dict[str, int]  # per strategy (T-test may stop early)
    optimize_seconds: float  # builds + sample measurements
    serve_seconds: float  # serving the remaining users with the winner
    ttest_stopped: dict[str, bool] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return self.optimize_seconds + self.serve_seconds


def _ttest_p(times: np.ndarray, mu0: float) -> float:
    """Two-sided one-sample test p-value (normal approximation)."""
    n = len(times)
    sd = float(times.std(ddof=1))
    if sd == 0.0:
        return 0.0 if float(times.mean()) != mu0 else 1.0
    z = (float(times.mean()) - mu0) / (sd / np.sqrt(n))
    return 2.0 * (1.0 - NormalDist().cdf(abs(z)))


class Recopt:
    """The MIPS serving optimizer (Section 4)."""

    def __init__(
        self,
        model: MFModel,
        index_factories: dict[str, "type | object"],
        *,
        k: int,
        sample_frac: float = 0.01,
        min_sample: int = 256,
        seed: int = 0,
    ):
        """``index_factories`` maps name -> callable(model) -> Strategy.

        Blocked MM is always included as the implicit brute-force choice.
        ``min_sample`` is the paper's hardware-effects floor: batched
        strategies (MM, LEMP, RECDEX) must see enough users at once for
        blocking to show — too small a sample makes RECOPT overestimate
        their cost and misclassify.  Point-query indexes don't pay the
        full floor: the T-test stops their measurement early.
        """
        self.model = model
        self.index_factories = index_factories
        self.k = k
        self.sample_frac = sample_frac
        self.min_sample = min_sample
        self.seed = seed

    def _sample_rows(self) -> np.ndarray:
        """The sorted user sample; the same rows on every call (seeded)."""
        m = self.model.m
        s = min(m, max(self.min_sample, int(np.ceil(self.sample_frac * m))))
        return np.sort(np.random.default_rng(self.seed).choice(m, size=s, replace=False))

    def estimate(self) -> tuple[OptimizerReport, Strategy, TopK]:
        """Phases 1–4: build, sample, measure, extrapolate — no full serve.

        Returns the report (``serve_seconds`` = 0), the winning strategy
        (a ``BlockedMM`` when ``"mm"`` wins) and the winner's answer for
        the sample users it was measured on, which are always
        ``sample_rows[:report.sample_users_measured[report.chosen]]``.
        ``run`` completes the serve; the Spark optimizer instead dispatches
        a distributed operator for the winner.
        """
        model = self.model
        t_opt0 = time.perf_counter()

        # 1. Build every candidate index (timed individually).
        strategies: dict[str, Strategy] = {}
        build_times: dict[str, float] = {}
        for name, factory in self.index_factories.items():
            t0 = time.perf_counter()
            idx = factory(model)
            idx.build()
            build_times[name] = time.perf_counter() - t0
            strategies[name] = idx

        # 2. Sample users.
        sample_rows = self._sample_rows()
        s = len(sample_rows)

        # 3. Measure blocked MM, then each index, on the sample.
        mm = BlockedMM(model)
        mm_per_user, mm_answer = self._measure(mm, sample_rows, mm_per_user=None)
        est_totals = {"mm": mm_per_user * model.m}
        measured = {"mm": s}
        answers = {"mm": mm_answer}
        ttest_stopped: dict[str, bool] = {}
        for name, idx in strategies.items():
            per_user, answers[name] = self._measure(idx, sample_rows, mm_per_user)
            est_totals[name] = build_times[name] + per_user * model.m
            measured[name] = len(answers[name].ids)
            ttest_stopped[name] = measured[name] < s
        optimize_seconds = time.perf_counter() - t_opt0

        # 4. Pick the minimum extrapolated total.
        chosen = min(est_totals, key=est_totals.get)  # type: ignore[arg-type]
        report = OptimizerReport(
            chosen=chosen,
            est_totals=est_totals,
            build_times=build_times,
            sample_size=s,
            sample_users_measured=measured,
            optimize_seconds=optimize_seconds,
            serve_seconds=0.0,
            ttest_stopped=ttest_stopped,
        )
        winner = mm if chosen == "mm" else strategies[chosen]
        return report, winner, answers[chosen]

    def _measure(
        self, strategy: Strategy, sample_rows: np.ndarray, mm_per_user: float | None
    ) -> tuple[float, TopK]:
        """Time ``strategy`` on the sample: seconds per user, and its answer.

        A batching strategy answers the whole sample in one call.  A point
        strategy answers one user per call; from ``_MIN_TTEST_USERS`` users
        on, every 4th user, a T-test against MM's per-user mean may stop it
        early, so its answer covers only a prefix of the sample.
        """
        chunk = len(sample_rows) if strategy.batching else 1
        times: list[float] = []
        parts: list[TopK] = []
        used = 0
        while used < len(sample_rows):
            rows = sample_rows[used : used + chunk]
            t0 = time.perf_counter()
            parts.append(strategy.query(rows, self.k))
            times.append(time.perf_counter() - t0)
            used += len(rows)
            if (
                chunk == 1
                and used >= _MIN_TTEST_USERS
                and used % 4 == 0
                and _ttest_p(np.array(times), mm_per_user) < _TTEST_ALPHA
            ):
                break
        answer = TopK(
            ids=np.vstack([p.ids for p in parts]),
            scores=np.vstack([p.scores for p in parts]),
        )
        return sum(times) / used, answer

    def run(self) -> tuple[TopK, OptimizerReport]:
        report, winner, sample_answer = self.estimate()
        m = self.model.m

        # 5. Serve the rest with the winner; reuse its sample answer.
        t0 = time.perf_counter()
        covered = self._sample_rows()[: report.sample_users_measured[report.chosen]]
        remaining = np.setdiff1d(np.arange(m), covered, assume_unique=True)
        out_ids = np.empty((m, sample_answer.ids.shape[1]), dtype=np.int64)
        out_scores = np.empty(out_ids.shape, dtype=np.float64)
        out_ids[covered] = sample_answer.ids
        out_scores[covered] = sample_answer.scores
        if len(remaining):
            rest = winner.query(remaining, self.k)
            out_ids[remaining] = rest.ids
            out_scores[remaining] = rest.scores
        report.serve_seconds = time.perf_counter() - t0
        return TopK(ids=out_ids, scores=out_scores), report
