"""Fitness system: instant analysed exercise feedback (§4.4).

"This application promotes physical exercise through encouragement and
motivates the users by providing instant analyzed feedback of the
exercise."  The exercise device (a gym machine or heart-rate belt) is
a PeerHood device registering the ``Fitness`` service; the user's PTD
streams exercise samples to it and receives analysed feedback —
heart-rate zone, averages, and encouragement — after each batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Generator

from repro.net.connection import Connection
from repro.peerhood.library import PeerHoodLibrary

SERVICE_NAME = "Fitness"

#: (zone name, lower bound bpm); evaluated from the highest down.
_ZONES = (
    ("maximum", 170.0),
    ("anaerobic", 150.0),
    ("aerobic", 130.0),
    ("fat burn", 110.0),
    ("warm up", 0.0),
)


def heart_rate_zone(bpm: float) -> str:
    """Classify a heart rate into a training zone."""
    if bpm < 0:
        raise ValueError(f"heart rate must be non-negative, got {bpm!r}")
    for name, lower in _ZONES:
        if bpm >= lower:
            return name
    return "warm up"


@dataclass(frozen=True)
class FitnessFeedback:
    """Instant analysed feedback for one batch of samples."""

    samples: int
    mean_bpm: float
    peak_bpm: float
    zone: str
    encouragement: str


def analyse(samples: list[float]) -> FitnessFeedback:
    """The device's analysis of one sample batch."""
    if not samples:
        raise ValueError("cannot analyse an empty batch")
    mean = sum(samples) / len(samples)
    peak = max(samples)
    zone = heart_rate_zone(mean)
    if zone in ("warm up", "fat burn"):
        cheer = "Nice and easy - you can push a little harder!"
    elif zone == "aerobic":
        cheer = "Great pace - right in the aerobic zone!"
    else:
        cheer = "Strong effort - remember to recover!"
    return FitnessFeedback(len(samples), mean, peak, zone, cheer)


class FitnessDevice:
    """The exercise-equipment side of the Fitness service."""

    def __init__(self, library: PeerHoodLibrary, equipment: str) -> None:
        self.library = library
        self.equipment = equipment
        self.env = library.daemon.env
        self.batches_analysed = 0
        # Bound once: every inbound half holds it.
        self._answer_bound = self._answer
        library.register_service(SERVICE_NAME, {"equipment": equipment},
                                 self._accept)

    def _accept(self, connection: Connection) -> None:
        connection.on_payload = self._answer_bound

    def _answer(self, connection: Connection, request: object) -> None:
        """Analyse one batch in its delivery event; the half keeps
        answering until a reply cannot be sent."""
        if request is None:  # every receiver reads None as link loss
            connection.on_payload = None
            return
        if not isinstance(request, dict) or request.get("op") != "batch":
            return
        try:
            try:
                feedback = analyse([float(value)
                                    for value in request.get("samples", [])])
            except (TypeError, ValueError, OverflowError) as exc:
                # No list of numbers, an empty batch or a negative
                # heart rate: the peer is told, and the link stays up.
                reply = {"ok": False, "error": str(exc)}
            else:
                self.batches_analysed += 1
                reply = {
                    "ok": True,
                    "samples": feedback.samples,
                    "mean_bpm": feedback.mean_bpm,
                    "peak_bpm": feedback.peak_bpm,
                    "zone": feedback.zone,
                    "encouragement": feedback.encouragement,
                }
            try:
                connection.send(reply)
            except (ConnectionError, OSError):
                connection.on_payload = None
        except Exception as exc:
            connection.answer_failed(f"fitness:{self.equipment}", exc)


class FitnessTracker:
    """The user's PTD streaming exercise samples for feedback."""

    def __init__(self, library: PeerHoodLibrary) -> None:
        self.library = library
        self.session_feedback: list[FitnessFeedback] = []

    def visible_equipment(self) -> list[tuple[str, str]]:
        """``(device_id, equipment)`` of fitness devices in range."""
        equipment = []
        for service in self.library.get_service_listing():
            if service.name == SERVICE_NAME:
                equipment.append((service.device_id,
                                  service.attribute("equipment", "?")))
        return sorted(equipment)

    def workout(self, device_id: str,
                batches: list[list[float]]) -> Generator:
        """Stream batches of samples; returns the feedback list."""
        connection = yield from self.library.connect(device_id, SERVICE_NAME)
        feedback: list[FitnessFeedback] = []
        try:
            for batch in batches:
                connection.send({"op": "batch", "samples": batch})
                reply = yield connection.recv()
                if reply is None:
                    raise ConnectionError("fitness connection lost")
                if reply.get("ok"):
                    feedback.append(FitnessFeedback(
                        reply["samples"], reply["mean_bpm"],
                        reply["peak_bpm"], reply["zone"],
                        reply["encouragement"]))
        finally:
            connection.close()
        self.session_feedback.extend(feedback)
        return feedback
