"""One admission-controlled engine fronting two datasets of different
image sizes.

The serving runtime's queues key on ``(method, image_shape)`` and its
cache keys on content digests, so a single :class:`ExplainEngine` can
front *multiple* :class:`ExperimentContext`s at once: here a 16x16
brain-tumor deployment and a 24x24 chest-X-ray deployment register
their explainers under namespaced method names (``brain:gradcam``,
``chest:occlusion``, ...) on one engine.  Mixed traffic from both test
sets then shares one admission bound (``max_pending``) and one sharded
cache — and a 24x24 batch never stacks into a 16x16 one.

Executor choice rides the same engine: ``--executor process`` serves
the mixed traffic from persistent worker *processes* — the module-level
:func:`build_multi_explainers` doubles as the worker-side
:class:`~repro.serve.EngineSpec` factory, so every worker rebuilds both
contexts' classifiers from the disk cache the first run populated.

With ``--store DIR`` the engine adds the persistent tier: the first
invocation computes everything and writes the maps behind to ``DIR``;
run the same command again and the "restarted" engine serves the whole
trace from disk without touching either classifier — the warm-restart
story for deploys.

Usage::

    PYTHONPATH=src python examples/multi_dataset_serving.py
    PYTHONPATH=src python examples/multi_dataset_serving.py \
        --executor process --workers 2
    PYTHONPATH=src python examples/multi_dataset_serving.py \
        --store /tmp/saliency_store   # run twice: 2nd start is warm
"""

import argparse

import numpy as np

from repro.eval.pipeline import ExperimentContext, ExperimentScale
from repro.explain import GradCAMExplainer, OcclusionExplainer
from repro.serve import (EngineSpec, ExplainEngine, ProcessExecutor,
                         SaliencyStore, ThreadedExecutor)


def smoke_scale(image_size: int) -> ExperimentScale:
    return ExperimentScale(image_size=image_size, train_divisor=400,
                           classifier_epochs=3, classifier_width=8,
                           cae_iterations=30, aux_epochs=1,
                           min_train_per_class=24, min_test_per_class=8)


def make_contexts() -> dict:
    return {
        "brain": ExperimentContext("brain_tumor1", scale=smoke_scale(16)),
        "chest": ExperimentContext("chest_xray", scale=smoke_scale(24)),
    }


def build_multi_explainers(contexts: dict = None) -> dict:
    """Namespaced explainers over both deployments' classifiers.

    Module-level on purpose: it is also the :class:`EngineSpec` factory
    for ``--executor process``, so each worker process materializes the
    same two classifiers (loaded from the shared ``.repro_cache``) and
    serves ``brain:*`` and ``chest:*`` batches interchangeably.  The
    parent passes its already-built contexts; workers (calling with no
    arguments) rebuild their own.
    """
    explainers = {}
    for tag, ctx in (contexts or make_contexts()).items():
        clf = ctx.classifier
        explainers[f"{tag}:gradcam"] = GradCAMExplainer(clf)
        explainers[f"{tag}:occlusion"] = OcclusionExplainer(
            clf, window=4, stride=2)
    return explainers


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--executor", default="threaded",
                        choices=("serial", "threaded", "process"))
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--store", metavar="DIR", default=None,
                        help="persistent saliency-store directory; rerun "
                        "with the same DIR to start warm (tier-2 hits "
                        "instead of recompute)")
    args = parser.parse_args()

    contexts = make_contexts()
    # Warm the disk cache before any worker process could need it.
    for tag, ctx in contexts.items():
        print(f"preparing {tag} context "
              f"({ctx.scale.image_size}x{ctx.scale.image_size}) ...")
        ctx.classifier

    # One engine, two deployments: each context contributes its own
    # trained classifier's explainers under namespaced method names.
    # (The engine's classifier slot goes unused — explainers hold their
    # own models — so a multi-model engine passes None.)
    explainers = build_multi_explainers(contexts)
    if args.executor == "process":
        executor = ProcessExecutor(EngineSpec(build_multi_explainers),
                                   workers=args.workers)
    elif args.executor == "threaded":
        executor = ThreadedExecutor(workers=args.workers)
    else:
        executor = "serial"

    # The engine adopts the store and closes it on close().
    store = SaliencyStore(args.store) if args.store else None
    engine = ExplainEngine(
        None, explainers,
        max_batch=16,
        cache_size=256, cache_shards=4,
        max_pending=32, policy="block",                    # backpressure
        executor=executor,
        store=store)                                       # tier 2 (opt.)
    print(f"serving on executor={engine.stats()['executor']}"
          + (f", store={args.store}" if args.store else ""))

    # Interleave async traffic from both deployments: requests from the
    # two image sizes land on independent shape-keyed queues, while the
    # admission bound caps how much unresolved work the producer can
    # pile up ahead of the workers.
    with engine:
        handles = []
        for tag, ctx in contexts.items():
            images, labels, _ = ctx.sample_test_images(8, seed=0)
            for method in ("gradcam", "occlusion"):
                for image, label in zip(images, labels):
                    handles.append(
                        engine.submit_async(image, int(label),
                                            f"{tag}:{method}"))
        resolved = engine.drain()
        print(f"\ncold pass: {resolved} handles resolved")

        shapes = {h.result().saliency.shape for h in handles}
        print(f"saliency shapes served side by side: {sorted(shapes)}")
        assert shapes == {(16, 16), (24, 24)}

        stats = engine.stats()
        print(f"batches: {stats['batches_run']}")
        print(f"admission: {stats['admission_blocked']} submits blocked "
              f"{stats['admission_blocked_ms']:.0f} ms total "
              f"(policy={stats['admission_policy']}, "
              f"max_pending={stats['max_pending']})")

        # Warm pass: the same mixed traffic is served from the shared
        # cache without touching either classifier.
        before = stats["batches_run"]
        for tag, ctx in contexts.items():
            images, labels, _ = ctx.sample_test_images(8, seed=0)
            for method in ("gradcam", "occlusion"):
                for image, label in zip(images, labels):
                    engine.submit_async(image, int(label),
                                        f"{tag}:{method}")
        engine.drain()
        stats = engine.stats()
        print(f"\nwarm pass: {stats['cache_hits']} cache hits, "
              f"{stats['batches_run'] - before} new batches")
        print(f"cache: size {stats['cache_size']} over "
              f"{stats['cache_shards']} shards")
        if store is not None:
            # Writes go to disk behind the requests: wait for the queue
            # before counting what persisted.
            store.flush()
            persisted = store.stats()
            print(f"store: {stats['store_served']} requests served from "
                  f"disk this run; {persisted['entries']} entries "
                  f"({persisted['bytes'] / 1024:.0f} KiB) persisted — "
                  "rerun with the same --store and the cold pass above "
                  "disappears")
    print("\nengine closed (drained first: no handle left behind)")


if __name__ == "__main__":
    main()
