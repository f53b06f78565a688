"""Micro-benchmarks for the repro.nn performance substrate.

Times the hot paths the perf PRs optimise — conv forward/backward, a
full ``bbcfe_step``, an occlusion saliency sweep, and classifier
inference — and writes machine-readable results to
``BENCH_substrate.json`` at the repo root so successive PRs accumulate a
perf trajectory.

Two sections also time, in alternation, the code their kernel replaced,
and the script exits non-zero, after writing its results, when the
same-run ratio falls below 1.3, so a revert fails on any machine (the
reference timings are ungated by ``tools/check_bench.py``):

* ``classifier_predict`` against the no-grad tape forward that
  ``predict_proba`` replaced (``tape_seconds``);
* ``conv_input_grad``, the tape's input-gradient step of a 3x3
  stride-1 conv, against an in-script copy of the GEMM + ``col2im``
  step that ``F.conv2d_input_grad``'s gather replaced
  (``col2im_seconds``).

The script runs unmodified on older revisions (it feature-detects
``nn.no_grad``), which is how the seed baseline was recorded::

    PYTHONPATH=src python benchmarks/bench_perf_substrate.py --label current
    # in a checkout of the seed commit:
    PYTHONPATH=<seed>/src python benchmarks/bench_perf_substrate.py \
        --label seed --out <here>/BENCH_substrate.json

When both ``seed`` and ``current`` entries exist the script reports the
speedup per benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import time
from typing import Callable, Dict

import numpy as np

from repro import nn
from repro.config import ReproConfig
from repro.classifiers import SmallResNet
from repro.core.bbcfe import PairSampler, bbcfe_step
from repro.core.model import CAEModel
from repro.data import ImageDataset
from repro.explain.occlusion import OcclusionExplainer
from repro.nn import functional as F

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_OUT = os.path.join(REPO_ROOT, "BENCH_substrate.json")

NO_GRAD = getattr(nn, "no_grad", None)          # absent in the seed
# Default engine dtype (float64 on the seed, where nn does not export it).
DTYPE = getattr(nn, "get_default_dtype", lambda: np.float64)()


def _timeit(fn: Callable[[], None], repeats: int, warmup: int = 1) -> float:
    """Median wall-clock seconds of ``fn`` over ``repeats`` runs."""
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def bench_conv_forward(repeats: int) -> float:
    rng = np.random.default_rng(0)
    x = nn.Tensor(rng.standard_normal((16, 8, 32, 32)).astype(DTYPE))
    w = nn.Tensor(rng.standard_normal((16, 8, 3, 3)).astype(DTYPE))
    b = nn.Tensor(rng.standard_normal(16).astype(DTYPE))

    def run() -> None:
        F.conv2d(x, w, b, stride=1, padding=1)
    return _timeit(run, repeats)


def bench_conv_backward(repeats: int) -> float:
    rng = np.random.default_rng(0)
    x = nn.Tensor(rng.standard_normal((16, 8, 32, 32)).astype(DTYPE),
                  requires_grad=True)
    w = nn.Tensor(rng.standard_normal((16, 8, 3, 3)).astype(DTYPE),
                  requires_grad=True)
    b = nn.Tensor(rng.standard_normal(16).astype(DTYPE), requires_grad=True)

    def run() -> None:
        x.grad = w.grad = b.grad = None
        (F.conv2d(x, w, b, stride=1, padding=1) ** 2).sum().backward()
    return _timeit(run, repeats)


def _tiny_dataset(n_per_class: int = 16, size: int = 32) -> ImageDataset:
    rng = np.random.default_rng(0)
    images = rng.random((2 * n_per_class, 1, size, size))
    labels = np.repeat(np.arange(2), n_per_class)
    return ImageDataset(images, labels)


def bench_bbcfe_step(repeats: int) -> float:
    dataset = _tiny_dataset()
    config = ReproConfig(image_size=32, base_channels=8, seed=0)
    model = CAEModel(num_classes=2, config=config)
    gen_params = model.encoder.parameters() + model.decoder.parameters()
    gen_opt = nn.Adam(gen_params, lr=config.lr)
    disc_opt = nn.Adam(model.discriminator.parameters(), lr=config.lr)
    sampler = PairSampler(dataset, rng=np.random.default_rng(0))

    def run() -> None:
        bbcfe_step(model.encoder, model.decoder, model.discriminator,
                   gen_opt, disc_opt, sampler, batch_size=8,
                   weights=config.loss_weights)
    return _timeit(run, repeats)


def bench_occlusion_sweep(repeats: int) -> float:
    dataset = _tiny_dataset(n_per_class=4)
    classifier = SmallResNet(num_classes=2, width=8, seed=0)
    explainer = OcclusionExplainer(classifier, window=5, stride=2)
    images = dataset.images[:4]
    labels = dataset.labels[:4]

    def run() -> None:
        if hasattr(explainer, "explain_batch"):
            explainer.explain_batch(images, labels)
        else:
            for image, label in zip(images, labels):
                explainer.explain(image, int(label))
    return _timeit(run, repeats)


#: The fewest interleaved (kernel, reference) pairs a same-run ratio is
#: measured over.
MIN_PAIRS = 5


def bench_classifier_predict(repeats: int) -> Dict[str, float]:
    """LIME's per-image call: ``predict_proba`` on 400 rows at 1x32x32
    (width 12, 4 classes), and the eval-mode tape forward it replaced,
    in that forward's old 64-row chunks.  The two are timed in
    alternation so that host noise lands on both sides of the ratio."""
    rng = np.random.default_rng(0)
    classifier = SmallResNet(num_classes=4, width=12, seed=0)
    classifier.eval()
    images = rng.random((400, 1, 32, 32)).astype(DTYPE)

    def kernel() -> None:
        classifier.predict_proba(images)

    def tape() -> None:
        with NO_GRAD() if NO_GRAD else contextlib.nullcontext():
            for start in range(0, len(images), 64):
                batch = nn.Tensor(images[start:start + 64])
                F.softmax(classifier(batch), axis=-1)

    kernel()
    tape()
    pairs = [(_timeit(kernel, 1, warmup=0), _timeit(tape, 1, warmup=0))
             for _ in range(max(repeats, MIN_PAIRS))]
    seconds, tape_seconds = np.median(pairs, axis=0)
    return {"seconds": float(seconds), "tape_seconds": float(tape_seconds)}


#: Calls per timed block of ``conv_input_grad`` (one call is a few ms).
INPUT_GRAD_CALLS = 20


def bench_conv_input_grad(repeats: int) -> Dict[str, float]:
    """The classifier's 3x3 stride-1 conv at batch 16 (width 12,
    32x32): the tape's input-gradient step, the backward of
    ``F.conv2d`` with the weight frozen, against an in-script copy of
    the GEMM + ``col2im`` step it ran before ``F.conv2d_input_grad``.
    Seconds are per call, over blocks timed in alternation."""
    rng = np.random.default_rng(0)
    x = nn.Tensor(rng.standard_normal((16, 12, 32, 32)).astype(DTYPE),
                  requires_grad=True)
    w = nn.Tensor(rng.standard_normal((12, 12, 3, 3)).astype(DTYPE))
    out = F.conv2d(x, w, stride=1, padding=1)
    grad = rng.standard_normal(out.shape).astype(DTYPE)
    w2dT = w.data.reshape(12, -1).T

    def tape() -> None:
        for _ in range(INPUT_GRAD_CALLS):
            x.grad = None
            out._backward(grad)

    def col2im() -> None:
        for _ in range(INPUT_GRAD_CALLS):
            x.grad = None
            gcols = np.matmul(w2dT, grad.reshape(16, 12, -1))
            x._accumulate(F.col2im(gcols, x.shape, 3, 1, 1))

    tape()
    col2im()
    pairs = [(_timeit(tape, 1, warmup=0), _timeit(col2im, 1, warmup=0))
             for _ in range(max(repeats, MIN_PAIRS))]
    seconds, col2im_seconds = np.median(pairs, axis=0) / INPUT_GRAD_CALLS
    return {"seconds": float(seconds),
            "col2im_seconds": float(col2im_seconds)}


#: Same-run gates: the reference timing each section records beside
#: ``seconds``, and the least ``reference / seconds`` it accepts.
SAME_RUN_GATES = {
    "classifier_predict": ("tape_seconds", 1.3),
    "conv_input_grad": ("col2im_seconds", 1.3),
}


BENCHES: Dict[str, Callable[[int], object]] = {
    "conv_forward": bench_conv_forward,
    "conv_backward": bench_conv_backward,
    "bbcfe_step": bench_bbcfe_step,
    "occlusion_sweep": bench_occlusion_sweep,
    "classifier_predict": bench_classifier_predict,
    "conv_input_grad": bench_conv_input_grad,
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--label", default="current",
                        help="entry name in the JSON (seed | current | ...)")
    parser.add_argument("--out", default=DEFAULT_OUT)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--only", nargs="*", choices=sorted(BENCHES),
                        help="run a subset of benchmarks")
    args = parser.parse_args()

    results = {}
    for name, fn in BENCHES.items():
        if args.only and name not in args.only:
            continue
        timed = fn(args.repeats)
        results[name] = timed if isinstance(timed, dict) \
            else {"seconds": timed}
        print(f"{name:>18}: {results[name]['seconds'] * 1000:8.1f} ms")

    failures = []
    for name, (reference, least) in SAME_RUN_GATES.items():
        timed = results.get(name)
        if not timed:
            continue
        ratio = timed[reference] / timed["seconds"]
        print(f"{name}: {reference} {timed[reference] * 1000:.2f} ms, "
              f"{ratio:.2f}x")
        if ratio < least:
            failures.append(f"{name} is {ratio:.2f}x its {reference}, "
                            f"below {least}x")

    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    entry = doc.setdefault(args.label, {})
    entry.update({
        "results": {**entry.get("results", {}), **results},
        "default_dtype": str(np.dtype(DTYPE)),
        "inference_mode": NO_GRAD is not None,
        "python": platform.python_version(),
        "numpy": np.__version__,
    })

    if "seed" in doc and "current" in doc:
        speedups = {}
        for name, cur in doc["current"]["results"].items():
            base = doc["seed"]["results"].get(name)
            if base:
                speedups[name] = round(base["seconds"] / cur["seconds"], 2)
        doc["speedup_vs_seed"] = speedups
        print("speedup vs seed:", speedups)

    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    if failures:
        raise SystemExit("\n".join(failures))


if __name__ == "__main__":
    main()
