"""Exact detector scoring against simulator ground truth.

An alert is a true positive iff its peer is adversary-linked in the
ground truth (``attacker`` or ``induced``) and its window overlaps the
labelled attack window (± one feature window of slack at the front,
``grace`` at the back, for boundary-straddling activity).

Recall is deliberately stricter than precision credit: the denominator
is the *observable* attacker identities of the detector's target attack
— adversary-controlled peers that produced at least one logged message.
Induced accomplices (hydra fleet nodes) never enter the denominator;
unobservable attackers (e.g. flood nodes the Bitswap monitor happens to
have no connection to) cannot be detected by any log-based method and
are excluded rather than silently forgiven via a lower floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.attack.ground_truth import GroundTruthLog
from repro.detect.detectors import Alert, Detector, default_detectors
from repro.detect.features import (
    DEFAULT_FOCUS_BITS,
    DEFAULT_WINDOW_SECONDS,
    FeatureExtractor,
    PeerWindowFeatures,
)
from repro.ids.peerid import PeerID


@dataclass
class DetectorScore:
    """Exact outcome of one detector against its target attack."""

    detector: str
    attack: str
    true_positives: int
    false_positives: int
    detected_attackers: int
    observable_attackers: int
    precision: float
    recall: float
    f1: float
    #: seconds from attack start to the first true-positive window;
    #: None when the detector never fired correctly (or no attack ran).
    time_to_detection: Optional[float]

    def to_dict(self) -> Dict[str, object]:
        return dict(self.__dict__)


@dataclass
class ScoreCard:
    """All detector scores plus the micro-averaged overall numbers."""

    per_detector: List[DetectorScore]
    num_alerts: int
    overall_precision: float
    overall_recall: float
    overall_f1: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "num_alerts": self.num_alerts,
            "overall_precision": self.overall_precision,
            "overall_recall": self.overall_recall,
            "overall_f1": self.overall_f1,
            "per_detector": [score.to_dict() for score in self.per_detector],
        }

    def render(self) -> str:
        return render_scorecard(self.to_dict())


def render_scorecard(card: Dict[str, object]) -> str:
    """Human-readable scorecard (CLI and report output)."""
    lines = [
        f"{'detector':<24} {'attack':<20} {'prec':>6} {'rec':>6} {'f1':>6} "
        f"{'tp':>5} {'fp':>5} {'ttd[h]':>7}"
    ]
    for row in card["per_detector"]:
        ttd = row["time_to_detection"]
        ttd_text = f"{ttd / 3600.0:7.1f}" if ttd is not None else "      -"
        lines.append(
            f"{row['detector']:<24} {row['attack']:<20} "
            f"{row['precision']:6.3f} {row['recall']:6.3f} {row['f1']:6.3f} "
            f"{row['true_positives']:5d} {row['false_positives']:5d} {ttd_text}"
        )
    lines.append(
        f"overall: precision {card['overall_precision']:.3f}  "
        f"recall {card['overall_recall']:.3f}  f1 {card['overall_f1']:.3f}  "
        f"({card['num_alerts']} alerts)"
    )
    return "\n".join(lines)


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _ratio(numerator: int, denominator: int) -> float:
    """Vacuous truth convention: a 0/0 score is perfect, not broken."""
    return numerator / denominator if denominator else 1.0


def run_detection(
    hydra_entries: Iterable,
    bitswap_entries: Iterable = (),
    ground_truth: Optional[GroundTruthLog] = None,
    window_seconds: float = DEFAULT_WINDOW_SECONDS,
    focus_bits: int = DEFAULT_FOCUS_BITS,
    detectors: Optional[List[Detector]] = None,
    grace: Optional[float] = None,
) -> ScoreCard:
    """Extract features, run detectors, score against ground truth.

    Works with any iterables of Hydra envelopes / Bitswap entries —
    in-memory monitor logs or re-opened disk stores alike.  With no
    ground truth (or an empty one), every alert is a false positive and
    recalls are vacuously 1.0: the honest-baseline false-alarm check.
    """
    if grace is None:
        grace = window_seconds
    extractor = FeatureExtractor(window_seconds=window_seconds, focus_bits=focus_bits)
    features = extractor.extract(hydra_entries, bitswap_entries)
    observed_peers = {feature.peer for feature in features}

    windows: Dict[str, Tuple[float, float]] = {}
    peer_attack: Dict[PeerID, str] = {}
    attacker_kind: Dict[str, Set[PeerID]] = {}
    if ground_truth is not None:
        windows = ground_truth.windows()
        for entry in ground_truth:
            if entry.peer is None or entry.event not in ("attacker", "induced"):
                continue
            peer_attack.setdefault(entry.peer, entry.attack)
            if entry.event == "attacker":
                attacker_kind.setdefault(entry.attack, set()).add(entry.peer)

    by_window: Dict[float, List[PeerWindowFeatures]] = {}
    for feature in features:
        by_window.setdefault(feature.window_start, []).append(feature)

    if detectors is None:
        detectors = default_detectors()
    alerts: List[Alert] = []
    for window_start in sorted(by_window):
        window_features = by_window[window_start]
        for detector in detectors:
            alerts.extend(detector.window_alerts(window_start, window_features))

    def is_true_positive(alert: Alert) -> bool:
        attack = peer_attack.get(alert.peer)
        if attack is None:
            return False
        start, end = windows.get(attack, (float("-inf"), float("inf")))
        return start - window_seconds <= alert.window_start <= end + grace

    per_detector: List[DetectorScore] = []
    total_tp = total_fp = 0
    for detector in detectors:
        own_alerts = [alert for alert in alerts if alert.detector == detector.name]
        tp_alerts = [alert for alert in own_alerts if is_true_positive(alert)]
        tp, fp = len(tp_alerts), len(own_alerts) - len(tp_alerts)
        total_tp += tp
        total_fp += fp
        observable = attacker_kind.get(detector.attack, set()) & observed_peers
        detected = {
            alert.peer for alert in tp_alerts if alert.peer in observable
        }
        precision = _ratio(tp, tp + fp)
        recall = _ratio(len(detected), len(observable))
        attack_window = windows.get(detector.attack)
        ttd: Optional[float] = None
        if attack_window is not None:
            own_attack_hits = [
                alert.window_start
                for alert in tp_alerts
                if peer_attack.get(alert.peer) == detector.attack
            ]
            if own_attack_hits:
                ttd = max(0.0, min(own_attack_hits) - attack_window[0])
        per_detector.append(
            DetectorScore(
                detector=detector.name,
                attack=detector.attack,
                true_positives=tp,
                false_positives=fp,
                detected_attackers=len(detected),
                observable_attackers=len(observable),
                precision=precision,
                recall=recall,
                f1=_f1(precision, recall),
                time_to_detection=ttd,
            )
        )

    all_observable: Set[PeerID] = set()
    for attack, peers in attacker_kind.items():
        all_observable |= peers & observed_peers
    all_detected: Set[PeerID] = set()
    for alert in alerts:
        if is_true_positive(alert) and alert.peer in all_observable:
            all_detected.add(alert.peer)
    overall_precision = _ratio(total_tp, total_tp + total_fp)
    overall_recall = _ratio(len(all_detected), len(all_observable))
    return ScoreCard(
        per_detector=per_detector,
        num_alerts=len(alerts),
        overall_precision=overall_precision,
        overall_recall=overall_recall,
        overall_f1=_f1(overall_precision, overall_recall),
    )
