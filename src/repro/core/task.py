"""Malleable-task model (paper Sections 1–2).

A *malleable task* is a task whose processing time depends on the number of
identical processors allotted to it: on ``l`` processors it runs for
``p(l)`` time units, non-preemptively, with the allotment fixed for its whole
execution.  The paper's model (after Prasanna & Musicus) imposes:

* **Assumption 1** — ``p(l)`` is non-increasing in ``l``  (eq. (1));
* **Assumption 2** — the speedup ``s(l) = p(1)/p(l)`` is concave in ``l``
  on the integer grid including ``l = 0`` with ``p(0) = ∞`` i.e. ``s(0) = 0``
  (eq. (2)).

Consequences proved in the paper and surfaced here as methods:

* **Theorem 2.1** — the work ``W(l) = l·p(l)`` is non-decreasing in ``l``;
* **Theorem 2.2** — work as a function of processing time, ``w(p(l))``,
  is convex; its continuous piecewise-linear interpolation (eq. (6)) can be
  written as a max of segment lines (eq. (8)), which is what linearizes
  LP (7) into LP (9).

This module implements the task type, assumption checking, the continuous
work function ``w(x)``, its segment-line decomposition for the LP, and the
fractional processor count ``l*(x) = w(x)/x`` of eq. (12).

The same rules also run over a whole ``(n, m)`` times matrix at once
(:func:`profile_violations`, :func:`first_profile_error`): that is how
an :class:`~repro.core.Instance` is checked when it is parsed, generated
or evolved in bulk.  :class:`MalleableTask` keeps its scalar checks as
the one-task path and as the reference the matrix kernel is tested
against.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "AssumptionError",
    "WorkSegment",
    "MalleableTask",
    "first_profile_error",
    "profile_violations",
]

#: Relative tolerance for floating-point assumption checks.  Profiles are
#: user data (often computed from analytic speedup models), so exact
#: comparisons would reject valid profiles by rounding noise.
_RTOL = 1e-9

#: Minimum relative time decrease for a canonical breakpoint.  Steps
#: smaller than this are treated as plateaus: they buy (numerically)
#: nothing and would otherwise create nearly-vertical work segments whose
#: slopes are dominated by cancellation error — poison for both LP (9)'s
#: constraint matrix and the convexity invariants.
_PLATEAU_RTOL = 1e-7


class AssumptionError(ValueError):
    """A processing-time profile violates Assumption 1 or Assumption 2."""


class WorkSegment(NamedTuple):
    """One linear piece of the convex work-vs-time function (eq. (8)).

    On the processing-time interval ``[p(l+1), p(l)]`` the work function is
    the line ``w(x) = slope * x + intercept`` with

    * ``slope = ((l+1)p(l+1) - l p(l)) / (p(l+1) - p(l))``
    * ``intercept = -p(l) p(l+1) / (p(l+1) - p(l))``

    Because the work function is convex (Theorem 2.2), ``w(x)`` equals the
    *maximum* of all segment lines over the whole domain — each segment is a
    valid global under-estimator, which is exactly the constraint family
    used in LP (9).
    """

    l: int  #: left processor count of the segment (uses l and l+1)
    x_hi: float  #: p(l)   (right endpoint; larger time)
    x_lo: float  #: p(l+1) (left endpoint; smaller time)
    slope: float
    intercept: float

    def value(self, x: float) -> float:
        """Evaluate the segment line at processing time ``x``."""
        return self.slope * x + self.intercept


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= _RTOL * max(abs(a), abs(b), scale, 1.0)


def _canonical_breaks(
    times: Tuple[float, ...]
) -> Tuple[Tuple[int, float], ...]:
    """Canonical strictly-decreasing breakpoints: ``(l, p(l))`` with the
    smallest ``l`` for each distinct time, ordered by increasing ``l``
    (hence strictly decreasing time)."""
    breaks: List[Tuple[int, float]] = [(1, times[0])]
    for l in range(2, len(times) + 1):
        if times[l - 1] < breaks[-1][1] * (1.0 - _PLATEAU_RTOL):
            breaks.append((l, times[l - 1]))
    return tuple(breaks)


def _value_error(l: int, t: float) -> ValueError:
    return ValueError(f"p({l}) = {t!r} must be a positive finite number")


def _assumption1_error(bad: List[int], profile: Tuple[float, ...]):
    return AssumptionError(
        f"Assumption 1 (non-increasing time) fails at l={bad}: "
        f"profile={profile}"
    )


def _assumption2_error(bad: List[int], profile: Tuple[float, ...]):
    return AssumptionError(
        f"Assumption 2 (concave speedup) fails at l={bad}: "
        f"profile={profile}"
    )


def _not_close(a: np.ndarray, b: np.ndarray, scale) -> np.ndarray:
    """Elementwise ``not _close(a, b, scale)``, the same floats."""
    bound = np.maximum(np.maximum(np.abs(a), np.abs(b)), np.maximum(scale, 1.0))
    return ~(np.abs(a - b) <= _RTOL * bound)


def profile_violations(
    times: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The per-task rules of :class:`MalleableTask` over an ``(n, m)``
    times matrix, as three boolean masks.

    * ``bad_value`` ``(n, m)``: ``p(l)`` is not a positive finite number;
    * ``bad1`` ``(n, m-1)``: column ``l-1`` is set iff ``l`` is in the
      row's :meth:`MalleableTask.assumption1_violations`;
    * ``bad2`` ``(n, m-1)``: likewise for
      :meth:`MalleableTask.assumption2_violations`.

    The comparisons, the :func:`_close` tolerance and every IEEE
    operation are the per-task ones (the speedups ``p(1)/p(l)`` and
    their forward differences from ``s(0) = 0``).  The assumption masks
    of a row with a bad value mean nothing: the task is rejected on
    the value first.
    """
    with np.errstate(all="ignore"):
        bad_value = ~(np.isfinite(times) & (times > 0.0))
        hi, lo = times[:, :-1], times[:, 1:]
        bad1 = (lo > hi) & _not_close(lo, hi, times[:, :1])
        diffs = np.diff(times[:, :1] / times, axis=1, prepend=0.0)
        lhs, rhs = diffs[:, 1:], diffs[:, :-1]
        bad2 = (lhs > rhs) & _not_close(lhs, rhs, 1.0)
    return bad_value, bad1, bad2


def first_profile_error(
    times: np.ndarray,
) -> Optional[Tuple[int, ValueError]]:
    """``(j, error)`` for the lowest-indexed row ``j`` that
    ``MalleableTask(times[j])`` rejects, or ``None`` when every row
    passes.

    ``error`` is the exception that construction raises, with its exact
    text: a :class:`ValueError` for the first bad value, else an
    :class:`AssumptionError` listing every offending ``l`` of
    Assumption 1, else of Assumption 2.
    """
    bad_value, bad1, bad2 = profile_violations(times)
    if not (bad_value.any() or bad1.any() or bad2.any()):
        return None
    rows = bad_value.any(axis=1) | bad1.any(axis=1) | bad2.any(axis=1)
    j = int(rows.argmax())
    profile = tuple(times[j].tolist())
    if bad_value[j].any():
        l0 = int(bad_value[j].argmax())
        return j, _value_error(l0 + 1, profile[l0])
    if bad1[j].any():
        return j, _assumption1_error(
            (np.flatnonzero(bad1[j]) + 1).tolist(), profile
        )
    return j, _assumption2_error(
        (np.flatnonzero(bad2[j]) + 1).tolist(), profile
    )


class MalleableTask:
    """A malleable task with a discrete processing-time profile.

    Parameters
    ----------
    times:
        Sequence ``(p(1), p(2), ..., p(m))`` of positive processing times;
        ``times[l-1]`` is the time on ``l`` processors.
    name:
        Optional human-readable label (used in Gantt charts and reports).
    validate:
        When true (default) the profile is checked against the selected
        ``model``'s assumptions at construction and
        :class:`AssumptionError` is raised on a violation.  Pass ``False``
        to build deliberately-invalid tasks (e.g. to exercise the
        validators or the repair utilities in :mod:`repro.models.repair`).
    model:
        Which malleable-task model the profile must satisfy:

        * ``"concave-speedup"`` (default) — the paper's main model:
          Assumption 1 (non-increasing time) + Assumption 2 (concave
          speedup).
        * ``"convex-work"`` — the **generalized model of the paper's
          Conclusion**: Assumption 1 + work non-decreasing in ``l``
          (Assumption 2' of [2, 18]) + work convex in the processing time.
          The pipeline (LP (9) + rounding + LIST) only ever uses these
          three properties, which is the paper's closing remark.

          Reproduction note: on the *discrete* grid the two models
          coincide.  Cross-multiplying the work-chord convexity condition
          for the triple ``(x_l, x_{l+1}, x_{l+2})`` gives exactly
          ``2/x_{l+1} >= 1/x_l + 1/x_{l+2}`` — interior speedup
          concavity — and work monotonicity at ``l = 1`` is precisely the
          ``l = 0`` concavity point ``2 p(2) >= p(1)``; Theorem 2.1's
          induction supplies the converse.  The equivalence is
          property-tested in ``tests/test_generalized_model.py``.  (The
          paper's ``p(l) = 1/(1-δ+δl²)`` example satisfies Assumption 2'
          but has *non-convex* work, so it belongs to neither model.)
          Validating against ``"convex-work"`` therefore accepts the same
          profiles through an independent code path — a useful
          cross-check — while stating the user's modeling intent.

    Notes
    -----
    Profiles may contain *plateaus* (``p(l+1) == p(l)``): allotting the
    extra processor buys nothing, so such counts are never beneficial.  The
    task canonicalizes internally: LP segments and rounding operate on the
    strictly-decreasing breakpoints only, and :meth:`processors_for_time`
    returns the smallest processor count achieving a time.
    """

    __slots__ = ("_times", "_name", "_breaks", "_segments", "_model")

    #: Recognized model names.
    MODELS = ("concave-speedup", "convex-work")

    def __init__(
        self,
        times: Sequence[float],
        name: Optional[str] = None,
        validate: bool = True,
        model: str = "concave-speedup",
    ):
        times_t = tuple(float(t) for t in times)
        if not times_t:
            raise ValueError("profile must contain at least p(1)")
        for l0, t in enumerate(times_t):
            if not math.isfinite(t) or t <= 0.0:
                raise _value_error(l0 + 1, t)
        if model not in self.MODELS:
            raise ValueError(
                f"unknown model {model!r}; known: {self.MODELS}"
            )
        self._times = times_t
        self._name = name
        self._model = model
        self._breaks = _canonical_breaks(times_t)
        self._segments: Optional[Tuple[WorkSegment, ...]] = None
        if validate:
            self.check_assumptions()

    @classmethod
    def _view(cls, times: Sequence[float], name: Optional[str]):
        """An unvalidated task over a row of an instance's times matrix
        (Python floats already checked positive and finite), built
        without the constructor's per-value conversion and checks."""
        self = cls.__new__(cls)
        self._times = times_t = tuple(times)
        self._name = name
        self._model = "concave-speedup"
        self._breaks = _canonical_breaks(times_t)
        self._segments = None
        return self

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def name(self) -> Optional[str]:
        """Human-readable label, if any."""
        return self._name

    @property
    def max_processors(self) -> int:
        """``m`` — the largest processor count in the profile."""
        return len(self._times)

    @property
    def times(self) -> Tuple[float, ...]:
        """The raw profile ``(p(1), ..., p(m))``."""
        return self._times

    def time(self, l: int) -> float:
        """Processing time ``p(l)`` on ``l`` processors (1 <= l <= m)."""
        if not (1 <= l <= len(self._times)):
            raise ValueError(
                f"l must be in [1, {len(self._times)}], got {l}"
            )
        return self._times[l - 1]

    def work(self, l: int) -> float:
        """Work ``W(l) = l * p(l)`` (processor-time product)."""
        return l * self.time(l)

    def speedup(self, l: int) -> float:
        """Speedup ``s(l) = p(1) / p(l)``; ``s(0) = 0`` by convention."""
        if l == 0:
            return 0.0
        return self._times[0] / self.time(l)

    @property
    def min_time(self) -> float:
        """``p(m)`` — the smallest achievable processing time."""
        return self._times[-1]

    @property
    def max_time(self) -> float:
        """``p(1)`` — the sequential processing time."""
        return self._times[0]

    @property
    def sequential_work(self) -> float:
        """``W(1) = p(1)`` — the minimum possible work (Theorem 2.1)."""
        return self._times[0]

    # ------------------------------------------------------------------
    # assumption checking (Section 1, eqs. (1) and (2))
    # ------------------------------------------------------------------
    def assumption1_violations(self) -> List[int]:
        """Processor counts ``l`` where ``p(l+1) > p(l)`` (monotonicity
        failures of eq. (1)).  Empty list means Assumption 1 holds."""
        bad = []
        scale = self._times[0]
        for l in range(1, len(self._times)):
            if self._times[l] > self._times[l - 1] and not _close(
                self._times[l], self._times[l - 1], scale
            ):
                bad.append(l)
        return bad

    def assumption2_violations(self) -> List[int]:
        """Points where the discrete speedup fails concavity (eq. (2)).

        Concavity of ``s`` on the integer grid (with ``s(0) = 0``) is
        equivalent to non-increasing forward differences:
        ``s(l+1) - s(l) <= s(l) - s(l-1)`` for ``l = 1..m-1``.  Returns the
        list of offending ``l``.
        """
        m = len(self._times)
        s = [0.0] + [self.speedup(l) for l in range(1, m + 1)]
        bad = []
        for l in range(1, m):
            lhs = s[l + 1] - s[l]
            rhs = s[l] - s[l - 1]
            if lhs > rhs and not _close(lhs, rhs, 1.0):
                bad.append(l)
        return bad

    def satisfies_assumption1(self) -> bool:
        """Whether eq. (1) holds (non-increasing processing time)."""
        return not self.assumption1_violations()

    def satisfies_assumption2(self) -> bool:
        """Whether eq. (2) holds (concave speedup, incl. the l=0 point)."""
        return not self.assumption2_violations()

    def satisfies_assumption2prime(self) -> bool:
        """Whether the *weaker* Assumption 2' of [2, 18] holds: work
        ``W(l) = l p(l)`` non-decreasing in ``l`` (eq. (3)).

        By Theorem 2.1 this is implied by Assumption 2; the converse fails
        (the paper gives ``p(l) = 1/(1 - δ + δ l²)`` as a witness).
        """
        scale = self._times[0]
        for l in range(1, len(self._times)):
            w0, w1 = self.work(l), self.work(l + 1)
            if w1 < w0 and not _close(w0, w1, scale):
                return False
        return True

    def satisfies_work_convexity(self) -> bool:
        """Whether the work function is convex in the processing time:
        the chord slopes over canonical breakpoints are non-increasing
        along the time axis (the conclusion of Theorem 2.2, taken as an
        *assumption* in the generalized ``"convex-work"`` model)."""
        slopes = [s.slope for s in self.segments()]
        # Segments are ordered by increasing l = decreasing time, so
        # convexity in time means this sequence is non-increasing.
        for a, b in zip(slopes, slopes[1:]):
            if b > a and not _close(a, b, abs(a) + abs(b)):
                return False
        return True

    @property
    def model(self) -> str:
        """The malleable-task model this task was validated against."""
        return self._model

    def check_assumptions(self) -> None:
        """Raise :class:`AssumptionError` unless the selected model's
        assumptions hold (see the class docstring for the two models)."""
        bad1 = self.assumption1_violations()
        if bad1:
            raise _assumption1_error(bad1, self._times)
        if self._model == "concave-speedup":
            bad2 = self.assumption2_violations()
            if bad2:
                raise _assumption2_error(bad2, self._times)
        else:  # convex-work (generalized model, paper's Conclusion)
            if not self.satisfies_assumption2prime():
                raise AssumptionError(
                    "generalized model: work must be non-decreasing in l "
                    f"(Assumption 2'): profile={self._times}"
                )
            if not self.satisfies_work_convexity():
                raise AssumptionError(
                    "generalized model: work must be convex in the "
                    f"processing time: profile={self._times}"
                )

    # ------------------------------------------------------------------
    # canonical breakpoints and LP segments
    # ------------------------------------------------------------------
    @property
    def breakpoints(self) -> Tuple[Tuple[int, float], ...]:
        """Strictly-decreasing canonical profile: ``((l, p(l)), ...)`` with
        the smallest ``l`` per distinct time, in increasing ``l`` order."""
        return self._breaks

    def segments(self) -> Tuple[WorkSegment, ...]:
        """The segment lines of eq. (8) over canonical breakpoints.

        Each consecutive breakpoint pair ``(l, p(l))``, ``(l', p(l'))``
        contributes the chord of the work function between them.  For a
        canonical (plateau-free) profile these are exactly the paper's
        ``l, l+1`` segments; plateaus merely skip degenerate zero-width
        pieces.  The returned tuple is empty when the task is rigid
        (profile effectively constant).
        """
        if self._segments is None:
            segs: List[WorkSegment] = []
            for (l, x_hi), (l2, x_lo) in zip(self._breaks, self._breaks[1:]):
                w_hi = l * x_hi  # work at larger time (fewer processors)
                w_lo = l2 * x_lo  # work at smaller time (more processors)
                slope = (w_lo - w_hi) / (x_lo - x_hi)
                intercept = w_hi - slope * x_hi
                segs.append(WorkSegment(l, x_hi, x_lo, slope, intercept))
            self._segments = tuple(segs)
        return self._segments

    # ------------------------------------------------------------------
    # the continuous work function (eqs. (6) and (8))
    # ------------------------------------------------------------------
    def work_of_time(self, x: float) -> float:
        """Continuous piecewise-linear work ``w(x)`` of eq. (6) / (8).

        Defined for ``x`` in ``[p(m), p(1)]``.  Because the work function is
        convex (Theorem 2.2) this equals the max over all segment lines,
        which is how LP (9) represents it; here we evaluate the containing
        segment directly for numerical sharpness.
        """
        lo, hi = self._breaks[-1][1], self._breaks[0][1]
        # Accept anything down to the raw minimum time: plateau collapse
        # can leave min_time a hair below the last canonical breakpoint.
        if x < self._times[-1] * (1 - _PLATEAU_RTOL) - _RTOL * hi or (
            x > hi * (1 + _RTOL)
        ):
            raise ValueError(
                f"x={x} outside the profile range [{lo}, {hi}]"
            )
        x = min(max(x, lo), hi)
        segs = self.segments()
        if not segs:  # rigid task: single breakpoint
            l, t = self._breaks[0]
            return l * t
        # Convexity: w(x) = max over segments.
        return max(s.value(x) for s in segs)

    def fractional_processors(self, x: float) -> float:
        """The fractional allotment ``l*(x) = w(x)/x`` of eq. (12).

        Lemma 4.1: if ``p(l+1) <= x <= p(l)`` then ``l <= l*(x) <= l+1``.
        """
        return self.work_of_time(x) / x

    def bracket(self, x: float) -> Tuple[int, int]:
        """Canonical breakpoint pair ``(l, l')`` with ``p(l') <= x <= p(l)``.

        Returns ``(l, l)`` when ``x`` coincides with breakpoint ``p(l)``.
        Used by the rounding step (Section 3.1).
        """
        lo, hi = self._breaks[-1][1], self._breaks[0][1]
        if x < self._times[-1] * (1 - _PLATEAU_RTOL) - _RTOL * hi or (
            x > hi * (1 + _RTOL)
        ):
            raise ValueError(
                f"x={x} outside the profile range [{lo}, {hi}]"
            )
        x = min(max(x, lo), hi)
        scale = hi
        for (l, t) in self._breaks:
            if _close(x, t, scale):
                return (l, l)
        for (l, t_hi), (l2, t_lo) in zip(self._breaks, self._breaks[1:]):
            if t_lo < x < t_hi:
                return (l, l2)
        # x must equal an endpoint within tolerance (handled above); guard:
        raise AssertionError(f"bracket failed for x={x}")  # pragma: no cover

    def processors_for_time(self, x: float) -> int:
        """Smallest processor count whose time is <= ``x`` (within tol)."""
        scale = self._breaks[0][1]
        for (l, t) in self._breaks:
            if t <= x or _close(t, x, scale):
                return l
        return self._breaks[-1][0]

    # ------------------------------------------------------------------
    # dunder protocol
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MalleableTask):
            return NotImplemented
        return (
            self._times == other._times
            and self._name == other._name
            and self._model == other._model
        )

    def __hash__(self) -> int:
        return hash((self._times, self._name, self._model))

    def __getstate__(self):
        # The segments memo is rebuilt on demand: left out, it does not
        # ride every pickle (an instance shipped to a pool worker).
        return (self._times, self._name, self._model, self._breaks)

    def __setstate__(self, state) -> None:
        self._times, self._name, self._model, self._breaks = state
        self._segments = None

    def __repr__(self) -> str:
        label = f" {self._name!r}" if self._name else ""
        return (
            f"MalleableTask{label}(m={len(self._times)}, "
            f"p(1)={self._times[0]:g}, p(m)={self._times[-1]:g})"
        )
