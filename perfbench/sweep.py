"""``sweep_table2``: the paper's Table II sweep, in-process.

Each sweep scores all ten Table II methods on two datasets through
``repro.eval.evaluate_methods`` with a fresh serial ``ExplainEngine``
(cold tier-1 and plan caches), on weights trained once and kept in
``perfbench/weights`` so every commit scores identical models.  The
images and the cell order are pinned, so the AOPC/PD of every (dataset,
method) cell must equal the reference in
``perfbench/reference/table2.json``; ``--seed`` changes nothing here.

``python3 perfbench/sweep.py --record`` (from the repository root)
rewrites that reference from the current checkout; it also trains and
saves any weights missing from ``perfbench/weights`` (the classifier,
CAE and ICAM through ``ExperimentContext``; TS-CAM, StyLEx and LaGAN as
``build_all_explainers`` trains them).
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import sys
import time
from typing import Dict, List, Tuple

import stats
from daemon import vm_hwm_kb

HERE = os.path.dirname(os.path.abspath(__file__))
WEIGHTS = os.path.join(HERE, "weights")
REFERENCE = os.path.join(HERE, "reference", "table2.json")


def make_scale(cfg: dict):
    from repro.eval import ExperimentScale
    return ExperimentScale(**cfg["scale"])


#: Methods whose explainers need no model of their own.
UNTRAINED = ("lime", "gradcam", "fullgrad", "simple_fullgrad",
             "smooth_fullgrad")
#: Methods that train an auxiliary model; their states are committed
#: beside the classifier, CAE and ICAM weights.
AUXILIARY = ("tscam", "stylex", "lagan")


def aux_explainer(method: str, context, path: str, train: bool):
    """The explainer of one auxiliary-model method, its model loaded from
    the state at ``path``.  With ``train`` (recording only) a missing
    state is trained the way ``build_all_explainers`` trains it and
    saved there."""
    from repro import nn
    from repro import explain as ex
    data, classifier = context.train_set, context.classifier
    if os.path.exists(path):
        channels, side = data.image_shape[0], data.image_shape[1]
        if method == "tscam":
            model = ex.PatchAttentionClassifier(data.num_classes, channels,
                                                image_size=side)
        elif method == "stylex":
            model = ex.LatentAutoencoder(channels, side)
        else:
            model = ex.MaskGenerator(channels)
        nn.load_state(model, path)
        model.eval()
    elif train:
        epochs = context.scale.aux_epochs
        if method == "tscam":
            model = ex.train_tscam(data, epochs=epochs)
        elif method == "stylex":
            model = ex.train_stylex(data, classifier, epochs=epochs)
        else:
            model = ex.train_lagan(data, classifier, epochs=epochs)
        nn.save_state(model, path)
    else:
        raise FileNotFoundError(f"committed weights missing: {path}")
    if method == "tscam":
        return ex.TSCAMExplainer(model)
    if method == "stylex":
        return ex.StylexExplainer(model, classifier)
    return ex.LAGANExplainer(model, classifier)


class Dataset:
    """One dataset's context, suite, pinned images and engine recipe.

    The suite is the context's own (``ExperimentContext.suite``) for the
    methods that train nothing and for CAE and ICAM, whose weights the
    context loads from ``cache_dir``; TS-CAM, StyLEx and LaGAN load
    their committed states instead of retraining on every build.
    """

    def __init__(self, name: str, cfg: dict, cache_dir: str,
                 train: bool = False):
        from repro.eval import ExperimentContext
        from repro.explain import TABLE2_METHODS
        self.name = name
        self.cfg = cfg
        self.context = ExperimentContext(name, make_scale(cfg),
                                         cache_dir=cache_dir)
        suite = dict(self.context.suite(include=UNTRAINED).explainers)
        tag = self.context.scale.tag(name)
        for method in AUXILIARY:
            suite[method] = aux_explainer(
                method, self.context,
                os.path.join(cache_dir, f"{tag}_{method}.npz"), train)
        self.explainers = {m: suite[m] for m in TABLE2_METHODS}
        self.images, self.labels, _ = self.context.sample_test_images(
            cfg["images_per_dataset"], abnormal_only=True, seed=0)

    def engine(self):
        from repro.serve import ExplainEngine
        return ExplainEngine(self.context.classifier, self.explainers,
                             max_batch=self.cfg["max_batch"],
                             cache_size=self.cfg["cache_size"],
                             executor="serial")

    def cell(self, engine, method: str) -> Tuple[float, float, float]:
        """Explain and score one Table II cell: ``(aopc, pd, seconds)``."""
        from repro.eval import evaluate_methods
        start = time.perf_counter()
        curves = evaluate_methods([method], self.context.classifier,
                                  self.images, self.labels,
                                  n_patches=self.cfg["n_patches"],
                                  patch=self.cfg["patch"], engine=engine)
        elapsed = time.perf_counter() - start
        return curves[method].aopc, curves[method].pd, elapsed


def stage_weights(work: str) -> str:
    """Copy the committed weights where the contexts may read them (a
    context trains and writes any file it misses; it must never write
    into the benchmark's own directory)."""
    cache = os.path.join(work, "weights")
    shutil.copytree(WEIGHTS, cache)
    return cache


class SweepRun:
    """One run of ``sweep_table2``.  It takes no seed: its inputs are
    pinned (see the module docstring)."""

    def __init__(self, cfg: dict, work: str, seconds: float, traced: bool):
        self.cfg = cfg
        self.work = work
        self.seconds = seconds
        self.traced = traced
        self.failures: List[str] = []
        self.report: Dict[str, object] = {}
        #: ``stats()`` of every engine a sweep closed, for the layers.
        self.engine_stats: List[dict] = []

    def setup(self) -> Tuple[List["Dataset"], float]:
        """Build every dataset's context, suite and engine
        ``setup_repeats`` times; returns the last build and the median
        of the per-build totals."""
        cache = stage_weights(self.work)
        totals = []
        for _ in range(self.cfg["setup_repeats"]):
            start = time.perf_counter()
            datasets = [Dataset(name, self.cfg, cache)
                        for name in self.cfg["datasets"]]
            for ds in datasets:
                ds.engine().close()
            totals.append(time.perf_counter() - start)
        self.report["setup_samples_s"] = totals
        return datasets, stats.median(totals)

    def sweep(self, datasets: List["Dataset"]) -> Tuple[dict, int]:
        """One full sweep: every cell on a fresh engine per dataset.
        Returns ``{(dataset, method): (aopc, pd)}`` and the number of
        maps."""
        engines = {ds.name: ds.engine() for ds in datasets}
        scores, maps = {}, 0
        try:
            for ds, method in [(ds, m) for ds in datasets
                               for m in ds.explainers]:
                aopc, pd, _ = ds.cell(engines[ds.name], method)
                scores[(ds.name, method)] = (aopc, pd)
                maps += len(ds.images)
        finally:
            for engine in engines.values():
                self.engine_stats.append(engine.stats())
                engine.close()
            # Free this sweep's engines (and their plan arenas) before the
            # next sweep builds its own, so peak memory is one sweep's.
            del engines
            gc.collect()
        return scores, maps

    def check(self, scores: dict) -> int:
        """Compare one sweep's AOPC/PD with the reference; returns the
        number of maps in mismatching cells."""
        with open(REFERENCE) as fh:
            reference = json.load(fh)
        tol = self.cfg["score_tolerance"]
        wrong = 0
        for (dataset, method), (aopc, pd) in scores.items():
            want = reference[dataset].get(method)
            if want is None or not (abs(aopc - want["aopc"]) <= tol
                                    and abs(pd - want["pd"]) <= tol):
                wrong += self.cfg["images_per_dataset"]
                self.failures.append(
                    f"{dataset}/{method}: AOPC {aopc:.9f} PD {pd:.9f} "
                    f"!= reference {want}")
        return wrong

    def measure(self, datasets: List["Dataset"], seconds: float
                ) -> Tuple[List[float], int, float, int]:
        """Sweep until ``seconds`` have passed (whole sweeps, at least
        one).  Returns each sweep's wall milliseconds per map, maps,
        elapsed seconds and maps in mismatching cells."""
        sweep_ms, maps, wrong = [], 0, 0
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            scores, n = self.sweep(datasets)
            sweep_ms.append((time.perf_counter() - began) * 1e3 / n)
            maps += n
            wrong += self.check(scores)
            elapsed = time.perf_counter() - start
            # Stop when another sweep would end further past the budget
            # than stopping now falls short of it.
            if elapsed + 0.5 * elapsed / len(sweep_ms) >= seconds:
                return sweep_ms, maps, elapsed, wrong

    def run(self) -> dict:
        datasets, setup_s = self.setup()
        if self.traced:
            import traced_sweep
            return traced_sweep.run(self, datasets)
        sweep_ms, maps, elapsed, wrong = self.measure(datasets, self.seconds)
        self.report.update({
            "sweep_maps_per_s": {"value": maps / elapsed, "unit": "maps/s"},
            "sweeps": len(sweep_ms), "maps": maps,
            "sweep_ms_per_map": sweep_ms,
            "score_tolerance": self.cfg["score_tolerance"],
            # Beside peak_rss_mb: the largest plan arena one engine held.
            "plans_arena_mb": max(s["plans"]["arena_bytes"]
                                  for s in self.engine_stats) / 1048576.0,
        })
        return {
            "attempted": maps,
            "failed": wrong,
            "metrics": {
                "setup_s": setup_s,
                # Each sweep does the same work, so its wall time per map
                # is one homogeneous sample (see workloads.json).
                "latency_p50_ms": stats.median(sweep_ms),
                "latency_p95_ms": stats.percentile(sweep_ms, 95.0),
                "throughput_per_s": maps / elapsed,
                "peak_rss_mb": vm_hwm_kb("self") / 1024.0,
            },
        }


# ----------------------------------------------------------------------
def record(root: str) -> None:
    """Rewrite the reference AOPC/PD from one sweep of this checkout,
    first training and saving any committed weights that are missing."""
    sys.path.insert(0, os.path.join(root, "src"))
    with open(os.path.join(HERE, "workloads.json")) as fh:
        cfg = json.load(fh)["workloads"]["sweep_table2"]
    datasets = [Dataset(name, cfg, WEIGHTS, train=True)
                for name in cfg["datasets"]]
    scores, _ = SweepRun(cfg, "", 0.0, False).sweep(datasets)
    reference: Dict[str, dict] = {}
    for (dataset, method), (aopc, pd) in scores.items():
        reference.setdefault(dataset, {})[method] = {"aopc": aopc, "pd": pd}
    os.makedirs(os.path.dirname(REFERENCE), exist_ok=True)
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python3 perfbench/sweep.py --record")
    record(os.getcwd())
