"""Post-swap guardrail and automatic rollback.

Validation (:mod:`repro.lifecycle.validate`) runs *before* publish; the
guardrail runs *after* a swap, against whatever version the gateway is
actually serving — including versions the controller never produced
(an operator publish, a broken offline training job).  When the served
model's probe behaviour regresses past the guardrail relative to the
last known-good version, :func:`republish_version` re-publishes that
good version as a **new** registry version, and the gateway's watcher
swaps back through the exact same zero-downtime path a promotion uses.

Re-publishing (rather than deleting the bad version) keeps registry
history append-only: the manifest records the rollback with metadata
pointing at what it restored and why, so an audit reads the whole
story from ``registry.describe(name)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ..metrics.ranking import roc_auc_score


@dataclass
class GuardReport:
    """Outcome of one guardrail evaluation of the served model."""

    regressed: bool
    reason: str
    checks: Dict[str, object] = field(default_factory=dict)

    def describe(self) -> dict:
        return {"regressed": self.regressed, "reason": self.reason,
                "checks": dict(self.checks)}


def evaluate_guardrail(served_scores: np.ndarray,
                       reference_scores: np.ndarray,
                       labels: Optional[np.ndarray] = None, *,
                       auc_drop: float = 0.15,
                       score_shift: Optional[float] = None,
                       min_score_std: float = 1e-12) -> GuardReport:
    """Compare the served model's probe scores against the known-good
    model's; decide whether live behaviour regressed.

    Checks, in order of severity: finiteness, score collapse
    (``std <= min_score_std``), ROC-AUC drop beyond ``auc_drop`` (only
    when ``labels`` carries both classes), and — optionally — a mean
    absolute score shift beyond ``score_shift`` (a label-free tripwire
    for deployments without ground truth).
    """
    served = np.asarray(served_scores, dtype=np.float64)
    reference = np.asarray(reference_scores, dtype=np.float64)
    finite = bool(np.isfinite(served).all())
    # Statistics of non-finite scores are recorded as None: the report
    # is served as strict JSON on the lifecycle status surface.
    checks: Dict[str, object] = {
        "finite": finite,
        "score_std": float(np.std(served)) if finite else None,
    }
    if not finite:
        return GuardReport(True, "served model produced non-finite probe "
                           "scores", checks)
    if checks["score_std"] <= min_score_std:
        return GuardReport(
            True, f"served probe scores collapsed (std "
            f"{checks['score_std']:.3g} <= {min_score_std:.3g})", checks)
    if labels is not None and len(np.unique(np.asarray(labels))) >= 2:
        served_auc = float(roc_auc_score(labels, served))
        reference_auc = float(roc_auc_score(labels, reference))
        checks["served_auc"] = served_auc
        checks["reference_auc"] = reference_auc
        checks["auc_drop"] = float(auc_drop)
        if served_auc + auc_drop < reference_auc:
            return GuardReport(
                True, f"live AUC regressed: served {served_auc:.4f} vs "
                f"known-good {reference_auc:.4f} (guardrail {auc_drop})",
                checks)
    if score_shift is not None:
        shift = float(np.mean(np.abs(served - reference)))
        checks["score_shift"] = shift
        checks["score_shift_limit"] = float(score_shift)
        if shift > score_shift:
            return GuardReport(
                True, f"mean probe-score shift {shift:.4g} exceeds "
                f"guardrail {score_shift:.4g}", checks)
    return GuardReport(False, "served model within guardrails", checks)


def republish_version(registry, name: str, version: int, reason: str,
                      extra_metadata: Optional[dict] = None) -> int:
    """Re-publish registry ``version`` of ``name`` as a new version.

    The atomic :meth:`~repro.serving.registry.ModelRegistry.publish`
    makes the restored checkpoint the latest, which the gateway's
    watcher hot-swaps on its next poll — rollback and promotion share
    one mechanism.  Returns the new version number.
    """
    model = registry.load(name, version)
    metadata = {"rollback": True, "restores": int(version), "reason": reason}
    if extra_metadata:
        metadata.update(extra_metadata)
    return registry.publish(model, name, metadata=metadata)
