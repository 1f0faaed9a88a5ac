"""Engine scaling benchmark: the SoA stack vs its oracle + grid throughput.

Measures, on a 500k-request zipf trace (50k objects, alpha=0.99):

1. **Streaming** — (a) the original per-access loop over the
   :class:`~repro.core.krr.KRRStack` oracle (`stack.access(int(keys[i]))`
   + per-request histogram record, i.e. the pre-engine code path) against
   (b) `KRRModel.process` on the array-native SoA stack (native
   chain-walk kernel when a C compiler is available).  Both must produce
   bit-identical curves.
2. **MultiKRR grid** — the 12-config (K x sampling-rate) grid evaluated
   cell by cell over one shared trace plan, bit-identity-checked against
   a plain loop of independent `KRRModel.process` runs with the same
   spawned per-config seeds.

This run doubles as the CI perf gate (see ``_gate``): the SoA stack must
never be slower than the legacy loop, must clear 5x when the native
kernel is active, every curve must be bit-identical to its oracle, and
the 12-config grid must stay under 3x the single-config SoA time.  Any
violation makes the process exit nonzero.

Writes machine-readable results to ``BENCH_engine.json`` at the repo root
so future PRs can track the perf trajectory, plus a text summary under
``benchmarks/results/``.  ``--quick`` shrinks the trace for CI smoke runs.

Run:  PYTHONPATH=src python benchmarks/bench_engine_scaling.py [--quick]
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))
from _common import write_result  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parents[1]

K = 5
SWEEP_KS = (1, 2, 5, 10)
SWEEP_RATES = (0.1, 0.05, 0.01)  # 4 x 3 = 12 configs


def _legacy_process(k, trace, seed):
    """The pre-engine per-access loop, preserved verbatim as the baseline.

    One ``KRRStack.access`` call per request on the oracle stack, with
    NumPy scalar unboxing (``int(keys[i])``), a result tuple per access,
    and one histogram ``record`` call per request.  Returns the curve.
    """
    from repro._util import ensure_rng
    from repro.core.krr import KRRStack
    from repro.mrc.builder import from_distance_histogram
    from repro.stack.histogram import DistanceHistogram

    keys = trace.keys
    sizes = trace.sizes
    stack = KRRStack(k, rng=ensure_rng(seed))
    obj_hist = DistanceHistogram()
    for i in range(keys.shape[0]):
        dist, _byte_dist = stack.access(int(keys[i]), int(sizes[i]))
        if dist < 0:
            obj_hist.record_cold()
        else:
            obj_hist.record(dist)
    return from_distance_histogram(obj_hist)


def bench_engines(trace, seed=1):
    from repro import KRRModel
    from repro.stack import native_kernel_active

    n = len(trace)
    soa_model = KRRModel(k=K, seed=seed)
    t0 = time.perf_counter()
    legacy_curve = _legacy_process(soa_model.effective_k, trace, seed)
    legacy_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    soa_model.process(trace)
    soa_s = time.perf_counter() - t0

    identical = bool(
        np.array_equal(legacy_curve.miss_ratios, soa_model.mrc().miss_ratios)
    )
    return {
        "requests": n,
        "k": K,
        "native_kernel": bool(native_kernel_active()),
        "legacy_s": round(legacy_s, 4),
        "soa_s": round(soa_s, 4),
        "legacy_requests_per_s": round(n / legacy_s),
        "soa_requests_per_s": round(n / soa_s),
        "soa_speedup_vs_legacy": round(legacy_s / soa_s, 3),
        "curves_identical": identical,
    }


def bench_multi_krr(trace, seed=3):
    from repro import KRRModel
    from repro.core.vkrr import MultiKRR

    grid = MultiKRR.grid(ks=SWEEP_KS, sampling_rates=SWEEP_RATES, seed=seed)
    t0 = time.perf_counter()
    rows = grid.run(trace)
    multi_s = time.perf_counter() - t0

    # The oracle: fully independent KRRModel runs with the same spawned
    # per-config seeds, no shared plan.
    t0 = time.perf_counter()
    oracle = []
    for cfg, cell_seed in zip(grid.configs, grid.config_seeds()):
        model = KRRModel(k=cfg.k, sampling_rate=cfg.sampling_rate, seed=cell_seed)
        model.process(trace)
        oracle.append((model.mrc(), model.stats.swap_positions))
    oracle_s = time.perf_counter() - t0

    identical = all(
        np.array_equal(curve.sizes, row.sizes)
        and np.array_equal(curve.miss_ratios, row.miss_ratios)
        and swaps == row.swap_positions
        for (curve, swaps), row in zip(oracle, rows)
    )
    return {
        "n_configs": len(grid),
        "multi_s": round(multi_s, 4),
        "independent_models_s": round(oracle_s, 4),
        "speedup_vs_independent_models": round(oracle_s / multi_s, 3),
        "identical_to_independent_models": bool(identical),
    }


def _gate(payload):
    """The CI perf contract; returns a list of failure strings."""
    failures = []
    eng = payload["engines"]
    if not eng["curves_identical"]:
        failures.append("SoA curve differs from the legacy oracle loop")
    if eng["soa_requests_per_s"] < eng["legacy_requests_per_s"]:
        failures.append(
            f"SoA stack slower than legacy loop "
            f"({eng['soa_requests_per_s']} < {eng['legacy_requests_per_s']} req/s)"
        )
    if eng["native_kernel"] and eng["soa_speedup_vs_legacy"] < 5.0:
        failures.append(
            f"native SoA speedup {eng['soa_speedup_vs_legacy']}x < 5x vs legacy"
        )
    multi = payload["multi_krr"]
    if not multi["identical_to_independent_models"]:
        failures.append("MultiKRR grid differs from independent KRRModel runs")
    if multi["multi_s"] > 3.0 * max(eng["soa_s"], 1e-3):
        failures.append(
            f"MultiKRR {multi['n_configs']}-config grid took {multi['multi_s']}s "
            f"> 3x single-config SoA time ({eng['soa_s']}s)"
        )
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke mode: 40k requests instead of 500k",
    )
    args = parser.parse_args(argv)

    from repro.workloads.trace import Trace
    from repro.workloads.zipf import zipf_trace_keys

    n_requests = 40_000 if args.quick else 500_000
    n_objects = 8_000 if args.quick else 50_000
    keys = zipf_trace_keys(n_objects, n_requests, 0.99, rng=1)
    trace = Trace(keys, name=f"zipf{n_requests // 1000}k")

    engines = bench_engines(trace)
    multi = bench_multi_krr(trace)

    payload = {
        "bench": "engine_scaling",
        "quick": args.quick,
        "cpus": os.cpu_count(),
        "trace": {
            "kind": "zipf",
            "n_requests": n_requests,
            "n_objects": n_objects,
            "alpha": 0.99,
        },
        "engines": engines,
        "multi_krr": multi,
    }
    failures = _gate(payload)
    payload["gate_failures"] = failures
    out = REPO_ROOT / "BENCH_engine.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")

    lines = [
        f"trace: {n_requests} requests, {n_objects} objects (zipf 0.99), "
        f"{os.cpu_count()} cpu(s)",
        "",
        f"streaming (K=5, native kernel: {engines['native_kernel']}):",
        f"  per-access  {engines['legacy_s']:8.2f}s  "
        f"{engines['legacy_requests_per_s']:>10,} req/s",
        f"  soa         {engines['soa_s']:8.2f}s  "
        f"{engines['soa_requests_per_s']:>10,} req/s  "
        f"({engines['soa_speedup_vs_legacy']:.2f}x)",
        f"  curves identical: {engines['curves_identical']}",
        "",
        f"MultiKRR {multi['n_configs']}-config grid "
        f"(K in {list(SWEEP_KS)}, R in {list(SWEEP_RATES)}):",
        f"  grid        {multi['multi_s']:8.2f}s",
        f"  independent {multi['independent_models_s']:8.2f}s  "
        f"({multi['speedup_vs_independent_models']:.2f}x)",
        f"  identical to independent models: "
        f"{multi['identical_to_independent_models']}",
        "",
        f"wrote {out}",
    ]
    if failures:
        lines += ["", "PERF GATE FAILURES:"] + [f"  - {f}" for f in failures]
    write_result("bench_engine_scaling", "\n".join(lines))
    return 1 if failures else 0


def test_engine_scaling_quick(benchmark):
    """Pytest-benchmark entry point: quick mode only."""
    benchmark.pedantic(lambda: main(["--quick"]), rounds=1, iterations=1)


if __name__ == "__main__":
    raise SystemExit(main())
