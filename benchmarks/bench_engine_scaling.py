"""Engine scaling benchmark: the SoA stack vs its oracle + grid throughput.

Measures, on a 500k-request zipf trace (50k objects, alpha=0.99):

1. **Streaming** — (a) the original per-access loop over the
   :class:`~repro.core.krr.KRRStack` oracle (`stack.access(int(keys[i]))`
   + per-request histogram record, i.e. the pre-engine code path) against
   (b) `KRRModel.process` on the array-native SoA stack (native
   chain-walk kernel when a C compiler is available).  Both must produce
   bit-identical curves.
2. **MultiKRR one-pass grid** — the 12-config (K x sampling-rate) grid
   evaluated in one streaming pass, bit-identity-checked against the
   `ModelSweep` oracle (one independent `KRRModel` per config).
3. **ModelSweep fan-out** — the same grid run serially and with 4 workers
   over the shared-memory trace store, with a bit-identity check.

This run doubles as the CI perf gate (see ``_gate``): the SoA stack must
never be slower than the legacy loop, must clear 5x when the native
kernel is active, every curve must be bit-identical to its oracle, and
the one-pass grid must stay under 3x the single-config SoA time.  Any
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
SWEEP_WORKERS = 4
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
    from repro.core.vkrr import MultiKRR
    from repro.engine import ModelSweep

    grid = MultiKRR.grid(ks=SWEEP_KS, sampling_rates=SWEEP_RATES, seed=seed)
    t0 = time.perf_counter()
    rows = grid.run(trace)
    multi_s = time.perf_counter() - t0

    # The serial sweep is the oracle: N fully independent KRRModel runs
    # with the same spawned per-config seeds.
    sweep = ModelSweep.grid(ks=SWEEP_KS, sampling_rates=SWEEP_RATES, seed=seed)
    t0 = time.perf_counter()
    oracle = sweep.run(trace, max_workers=1)
    oracle_s = time.perf_counter() - t0

    identical = all(
        np.array_equal(a.sizes, b.sizes)
        and np.array_equal(a.miss_ratios, b.miss_ratios)
        and a.swap_positions == b.swap_positions
        for a, b in zip(oracle, rows)
    )
    return {
        "n_configs": len(grid),
        "multi_s": round(multi_s, 4),
        "sweep_oracle_s": round(oracle_s, 4),
        "speedup_vs_sweep_oracle": round(oracle_s / multi_s, 3),
        "identical_to_sweep_oracle": bool(identical),
    }


def bench_sweep(trace, seed=3):
    from repro.engine import ModelSweep

    sweep = ModelSweep.grid(ks=SWEEP_KS, sampling_rates=SWEEP_RATES, seed=seed)
    t0 = time.perf_counter()
    serial = sweep.run(trace, max_workers=1)
    serial_s = time.perf_counter() - t0

    # Oversubscribing a small box (e.g. a 1-CPU CI runner) just measures
    # scheduler thrash, so cap the fan-out at the actual core count and
    # record what was effectively used alongside the request.
    workers = min(SWEEP_WORKERS, os.cpu_count() or 1)
    t0 = time.perf_counter()
    parallel = sweep.run(trace, max_workers=workers)
    parallel_s = time.perf_counter() - t0

    identical = all(
        np.array_equal(a.sizes, b.sizes)
        and np.array_equal(a.miss_ratios, b.miss_ratios)
        for a, b in zip(serial, parallel)
    )
    return {
        "n_configs": len(sweep),
        "workers_requested": SWEEP_WORKERS,
        "workers": workers,
        "serial_s": round(serial_s, 4),
        "parallel_s": round(parallel_s, 4),
        "speedup": round(serial_s / parallel_s, 3),
        "bit_identical_grids": bool(identical),
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
    if not multi["identical_to_sweep_oracle"]:
        failures.append("MultiKRR grid differs from the ModelSweep oracle")
    if multi["multi_s"] > 3.0 * max(eng["soa_s"], 1e-3):
        failures.append(
            f"MultiKRR {multi['n_configs']}-config grid took {multi['multi_s']}s "
            f"> 3x single-config SoA time ({eng['soa_s']}s)"
        )
    swept = payload["model_sweep"]
    if not swept["bit_identical_grids"]:
        failures.append("serial and parallel sweep grids differ")
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
    swept = bench_sweep(trace)

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
        "model_sweep": swept,
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
        f"MultiKRR one-pass {multi['n_configs']}-config grid "
        f"(K in {list(SWEEP_KS)}, R in {list(SWEEP_RATES)}):",
        f"  one pass    {multi['multi_s']:8.2f}s",
        f"  sweep orc   {multi['sweep_oracle_s']:8.2f}s  "
        f"({multi['speedup_vs_sweep_oracle']:.2f}x)",
        f"  identical to sweep oracle: {multi['identical_to_sweep_oracle']}",
        "",
        f"ModelSweep {swept['n_configs']}-config grid:",
        f"  serial      {swept['serial_s']:8.2f}s",
        f"  {swept['workers']} workers   {swept['parallel_s']:8.2f}s",
        f"  speedup     {swept['speedup']:.2f}x  "
        f"(grids bit-identical: {swept['bit_identical_grids']})",
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
