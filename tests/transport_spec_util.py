"""Spec-factory helper importable from spawned worker processes.

The transport parity suite trains every Table II explainer **once** in
the parent and ships the finished objects through ``EngineSpec`` kwargs
(they pickle); each single-worker pool then materializes bit-identical
replicas without retraining.  The factory must live in a module the
spawned interpreter can import by name — a test-class local would not
resolve — and the tests directory rides into the worker via the
inherited ``sys.path``.
"""


def prebuilt(explainers):
    return explainers


class CrashOnMarker:
    """Failure injection for the pool: the worker process dies
    (``os._exit``) on a batch holding an image whose first pixel is
    ``MARKER``; any other batch gets each image's first channel."""

    name = "crash_on_marker"
    needs_gradients = False
    plan_eligible = False
    MARKER = -1000.0

    def explain_batch(self, images, labels, targets=None):
        import os

        import numpy as np

        from repro.explain.base import SaliencyResult

        if (np.asarray(images)[:, 0, 0, 0] == self.MARKER).any():
            os._exit(13)
        return [SaliencyResult(np.array(images[i][0]), int(labels[i]))
                for i in range(len(images))]
