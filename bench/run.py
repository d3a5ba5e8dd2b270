"""powergenus benchmark: one closed-loop caller, one item at a time.

    python3 bench/run.py --workload {classify,sweep} --seed N \
        --seconds S --trace {0,1}

Runs passes over the workload's items for S seconds (at least two whole
passes; the last may stop part-way), checks every output, and prints the
metrics by name with their units; the last line of standard output is one
JSON object.  An item's time is its median over the run.  ``--trace 0``
reports the end-to-end metrics.  ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics (per pass, median over the
traced passes) and the tracing overhead.  See README.md beside this file.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Fresh processes that repeat the set-up, besides this one: half before
#: the measured passes and half after, so that they do not all fall into
#: the same spell of the shared machine.
SETUP_CHILDREN = 6
#: Whole passes a run makes at least, so that each item has a median of several.
MIN_PASSES = 2

END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "item_p50_s": "s",
                    "item_tail_s": "s", "exact_share": "share",
                    "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "share"
    return "count"


def import_package():
    """Import powergenus from this checkout's src/, never from elsewhere."""
    if not (SRC / "powergenus" / "__init__.py").is_file():
        raise SystemExit(f"error: no powergenus sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import powergenus
    if SRC not in Path(powergenus.__file__).resolve().parents:
        raise SystemExit(f"error: powergenus imported from {powergenus.__file__}")
    import workloads
    return workloads


def tail(values) -> tuple[float, float]:
    """The highest sample with at least ten samples beyond it (the maximum
    when there are fewer than eleven), and its percentile."""
    xs = sorted(values)
    i = len(xs) - 11 if len(xs) >= 11 else len(xs) - 1
    return xs[i], 100 * i / max(len(xs) - 1, 1)


def measure(wl, seconds: float, min_passes: int, trace: bool,
            spans=None) -> dict:
    """Passes over the items until ``seconds`` have gone by, at least
    ``min_passes`` of them whole; the last pass may stop part-way, so the
    run measures for the whole time it is given.  With ``trace``, every
    second pass is traced."""
    tracer = spans.Tracer() if trace else None
    # item durations, untraced and traced
    times = {False: [[] for _ in wl.items], True: [[] for _ in wl.items]}
    exact = [True] * len(wl.items)
    passes = 0  # whole passes
    layers = []
    attempted = failed = 0
    passes_ok = True
    if trace:
        min_passes = max(min_passes, 2)
    start = time.perf_counter()
    done = False
    while not done:
        traced = trace and passes % 2 == 1
        results = []
        if traced:
            tracer.reset()
            tracer.install()
        try:
            for i, item in enumerate(wl.items):
                if (passes >= min_passes
                        and time.perf_counter() - start >= seconds):
                    done = True
                    break
                if traced:
                    tracer.item = i
                t = time.perf_counter()
                try:
                    out = wl.run(item)
                except Exception as exc:  # a failed item, counted below
                    print(f"{wl.name} item {i} raised {exc!r}", file=sys.stderr)
                    out = exc
                times[traced][i].append(time.perf_counter() - t)
                results.append((item, out))
        finally:
            if traced:
                tracer.uninstall()

        for i, (item, out) in enumerate(results):
            attempted += 1
            ok = not isinstance(out, Exception)
            if ok:
                try:
                    ok = wl.check(item, out)
                except Exception as exc:
                    print(f"{wl.name} item {i} check raised {exc!r}",
                          file=sys.stderr)
                    ok = False
                if not ok:
                    print(f"{wl.name} item {i} failed its check", file=sys.stderr)
            failed += not ok
            exact[i] = exact[i] and ok and wl.exact(item, out)
        if done:
            break  # a part pass gets no whole-pass checks or layer metrics
        passes += 1
        passes_ok &= wl.check_pass(results)
        if traced:
            layers.append({**spans.layer_metrics(tracer.spans),
                           **wl.pass_counters(results)})
    # each item's median over its passes: the machine is shared and swings
    # between faster and slower spells of seconds to a minute, so a median
    # over the run is steadier from run to run than the fastest pass
    item_s = {k: [median(ts) for ts in v] if v[0] else []
              for k, v in times.items()}
    return {"item_s": item_s, "passes": passes, "layers": layers,
            "samples": sum(map(len, times[False])),
            "attempted": attempted, "failed": failed,
            "exact_share": sum(exact) / len(exact),
            "passes_ok": passes_ok, "elapsed": time.perf_counter() - start}


def child_setup_s(workload: str, seed: int) -> float:
    """Set-up time of a fresh process: import plus input generation."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def end_to_end(m: dict, setup_s: list[float]) -> tuple[dict, list[str]]:
    item_s = m["item_s"][False]
    tail_s, pct = tail(item_s)
    values = {
        "setup_s": median(setup_s),
        "items_per_s": len(item_s) / sum(item_s),
        "item_p50_s": median(item_s),
        "item_tail_s": tail_s,
        "exact_share": m["exact_share"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    part = m["samples"] > m["passes"] * len(item_s)
    notes = [f"item times are each item's median over its samples: "
             f"{m['samples']} in {m['passes']} whole passes"
             f"{' and a part pass' if part else ''}; "
             f"item_tail_s is p{pct:.1f} of {len(item_s)} items",
             f"setup_s is the median of {len(setup_s)} set-ups"]
    return values, notes


def per_layer(m: dict, properties: dict, spans) -> tuple[dict, list[str]]:
    values = dict.fromkeys(spans.PER_LAYER, 0)
    values.update(spans.median_metrics(m["layers"]))
    values.update(properties)
    untraced, traced = sum(m["item_s"][False]), sum(m["item_s"][True])
    values["trace.overhead_s"] = traced - untraced
    values["trace.overhead_share"] = (traced - untraced) / untraced
    notes = [f"one pass of median item times: traced {traced:.4f} s, "
             f"untraced {untraced:.4f} s ({m['passes']} passes, alternating)"]
    return values, notes


def run(workload: str, seed: int, seconds: float, trace: bool,
        small: bool = False, t0: float | None = None) -> dict:
    """One benchmark run; returns the result object plus report lines.
    ``t0`` is when set-up began (default: now)."""
    t0 = time.perf_counter() if t0 is None else t0
    workloads = import_package()
    wl = workloads.WORKLOADS[workload](seed, small=small)
    setup_s = [time.perf_counter() - t0]
    spans = None
    if trace:
        import spans
        properties = wl.properties()
    children = 0 if trace or small else SETUP_CHILDREN
    setup_s += [child_setup_s(workload, seed) for _ in range(children // 2)]
    m = measure(wl, seconds, 1 if small else MIN_PASSES, trace, spans)
    setup_s += [child_setup_s(workload, seed)
                for _ in range(children - children // 2)]
    if trace:
        values, notes = per_layer(m, properties, spans)
        units = {k: layer_unit(k) for k in values}
    else:
        values, notes = end_to_end(m, setup_s)
        units = END_TO_END_UNITS
    error_share = m["failed"] / m["attempted"]
    lines = [f"workload {workload} seed {seed} trace {int(trace)}: "
             f"{m['elapsed']:.2f} s measured"]
    lines += [f"  {k:32s} {v:.6g} {units[k]}" for k, v in values.items()]
    lines += [f"  {'error_share':32s} {error_share:.6g} share "
              f"({m['failed']} of {m['attempted']} items failed a check)"]
    lines += [f"  {n}" for n in notes]
    return {
        "correct": m["failed"] == 0 and m["passes_ok"],
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        "error_share": error_share,
        "report": lines,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("classify", "sweep"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the inputs, print the set-up time and exit")
    args = p.parse_args(argv)
    if args.setup_only:
        workloads = import_package()
        workloads.WORKLOADS[args.workload](args.seed)
        print(time.perf_counter() - T_START)
        return 0
    res = run(args.workload, args.seed, args.seconds, bool(args.trace),
              t0=T_START)
    print("\n".join(res.pop("report")))
    res.pop("error_share")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
