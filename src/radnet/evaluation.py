"""Detection metrics (precision/recall/F1) and diagnosis metrics
(HitRate@P%, NDCG@P%) with report assembly.

Diagnosis metrics rank links by predicted per-link score at each timestep
that has at least one true incident link; k is ceil(P/100 * |truth|). Ties
in the ranking break deterministically by ascending link id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import files
from .incidents import IncidentLabels

PCTS = (100, 150)


def confusion(pred, truth) -> tuple[int, int, int]:
    pred = np.asarray(pred).astype(bool)
    truth = np.asarray(truth).astype(bool)
    if pred.shape != truth.shape:
        raise ValueError(f"label shapes differ: {pred.shape} vs {truth.shape}")
    tp = int(np.sum(pred & truth))
    fp = int(np.sum(pred & ~truth))
    fn = int(np.sum(~pred & truth))
    return tp, fp, fn


def prf1(pred, truth) -> tuple[float, float, float]:
    """Precision, recall, F1; zero denominators score 0."""
    tp, fp, fn = confusion(pred, truth)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def rank_links(scores) -> list[int]:
    """Link ids by descending score, ties broken by ascending id."""
    scores = np.asarray(scores, dtype=np.float64)
    order = np.lexsort((np.arange(scores.size), -scores))
    return [int(i) for i in order]


def _top_k(p_pct: float, n_truth: int) -> int:
    return int(np.ceil(p_pct / 100.0 * n_truth))


def hitrate_at(ranked_links, truth_links, p_pct: float) -> float:
    """|top-k of the ranking intersected with truth| / |truth|."""
    truth = set(truth_links)
    if not truth:
        raise ValueError("hit rate needs a non-empty truth set")
    if not len(ranked_links):
        raise ValueError("hit rate needs a non-empty ranking")
    k = _top_k(p_pct, len(truth))
    return len(set(ranked_links[:k]) & truth) / len(truth)


def ndcg_at(ranked_links, truth_links, p_pct: float) -> float:
    """Binary-relevance NDCG over the top k = ceil(P% * |truth|) links."""
    truth = set(truth_links)
    if not truth:
        raise ValueError("NDCG needs a non-empty truth set")
    if not len(ranked_links):
        raise ValueError("NDCG needs a non-empty ranking")
    k = _top_k(p_pct, len(truth))
    dcg = sum(
        1.0 / np.log2(rank + 2)
        for rank, link in enumerate(ranked_links[:k])
        if link in truth
    )
    ideal = sum(1.0 / np.log2(rank + 2) for rank in range(min(k, len(truth))))
    return dcg / ideal


def diagnosis_metrics(
    link_scores: np.ndarray, truth_link_labels: np.ndarray
) -> tuple[dict[int, float], dict[int, float], int]:
    """Mean HitRate@P% / NDCG@P% over timesteps with true incident links, P in PCTS.

    Returns (hitrate map, ndcg map, number of qualifying timesteps).
    """
    link_scores = np.asarray(link_scores, dtype=np.float64)
    truth_link_labels = np.asarray(truth_link_labels)
    if link_scores.shape != truth_link_labels.shape:
        raise ValueError(
            f"score/label shapes differ: {link_scores.shape} vs {truth_link_labels.shape}"
        )
    hits = {p: [] for p in PCTS}
    gains = {p: [] for p in PCTS}
    used = 0
    for i in range(link_scores.shape[0]):
        truth = set(np.flatnonzero(truth_link_labels[i]))
        if not truth:
            continue
        used += 1
        ranked = rank_links(link_scores[i])
        for p in PCTS:
            hits[p].append(hitrate_at(ranked, truth, p))
            gains[p].append(ndcg_at(ranked, truth, p))
    hitrate = {p: float(np.mean(v)) if v else 0.0 for p, v in hits.items()}
    ndcg = {p: float(np.mean(v)) if v else 0.0 for p, v in gains.items()}
    return hitrate, ndcg, used


@dataclass
class EvalReport:
    """Detection and diagnosis results for one horizon."""

    horizon: int
    precision: float
    recall: float
    f1: float
    hitrate: dict[int, float]
    ndcg: dict[int, float]
    tp: int
    fp: int
    fn: int
    degenerate: bool  # no positives on either side at network level
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "hitrate": {str(k): v for k, v in self.hitrate.items()},
            "ndcg": {str(k): v for k, v in self.ndcg.items()},
            "counts": {"tp": self.tp, "fp": self.fp, "fn": self.fn},
            "degenerate": self.degenerate,
            "meta": self.meta,
        }

    def to_json(self, path: str | Path) -> None:
        files.write_json(path, self.to_dict())

    def to_table(self, model_name: str = "model") -> str:
        """A header line and one row for `model_name`."""
        return (
            f"{'model':12s} {'P':>6s} {'R':>6s} {'F1':>6s} "
            f"{'H@1':>6s} {'H@1.5':>6s} {'N@1':>6s} {'N@1.5':>6s}\n"
            f"{model_name:12s} {self.precision:6.3f} {self.recall:6.3f} {self.f1:6.3f} "
            f"{self.hitrate.get(100, 0.0):6.3f} {self.hitrate.get(150, 0.0):6.3f} "
            f"{self.ndcg.get(100, 0.0):6.3f} {self.ndcg.get(150, 0.0):6.3f}"
        )


def evaluate(predicted: IncidentLabels, truth: IncidentLabels) -> EvalReport:
    """Score predicted labels against generated ground truth."""
    if predicted.timesteps.shape != truth.timesteps.shape or (
        predicted.timesteps != truth.timesteps
    ).any():
        raise ValueError("prediction and truth cover different timesteps")
    precision, recall, f1 = prf1(predicted.network_labels, truth.network_labels)
    tp, fp, fn = confusion(predicted.network_labels, truth.network_labels)
    hitrate, ndcg, used = diagnosis_metrics(predicted.link_scores, truth.link_labels)
    # link-level detection over all (timestep, link) cells; the network-level
    # numbers above stay the headline
    link_p, link_r, link_f1 = prf1(predicted.link_labels.ravel(), truth.link_labels.ravel())
    return EvalReport(
        horizon=predicted.horizon,
        precision=precision,
        recall=recall,
        f1=f1,
        hitrate=hitrate,
        ndcg=ndcg,
        tp=tp,
        fp=fp,
        fn=fn,
        degenerate=(tp + fp + fn) == 0,
        meta={
            "diagnosis_timesteps": used,
            "per_link": {"precision": link_p, "recall": link_r, "f1": link_f1},
        },
    )


# Reference anchors from published full-scale runs; recorded for context,
# deliberately not asserted anywhere (desk-scale runs cannot reproduce them).
REFERENCE_ANCHORS = {
    "radset_5min_f1": 0.930,
    "metr_la_5min_f1": 0.678,
    "pems_5min_f1": 0.617,
    "parameter_count_millions": {"metr_la": 1.16, "pems": 2.93, "radset": 0.77},
}
