"""florence-mini benchmark: one workload per process, BLAS pinned to one thread.

    python3 perfbench/run.py --workload train-32px-gcache --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 0

Run from the repository root; the program is imported from ./src. The last line
of standard output is one JSON object: with --trace 0 the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics. The lines above it print
every metric by name and unit, the environment and each correctness check.
See perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import os
import time

_PROCESS_T0 = time.perf_counter()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads: one BLAS thread, as in the paper's one-core claim

import argparse
import ctypes
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
SCALED = ("samples_per_s", "step_s_p50", "step_s_tail", "cpu_s_per_step")
TRACE_OPS = ("matmul", "add", "reshape", "transpose", "layer_norm", "softmax", "gelu", "embedding", "conv2d", "scale")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def blas_threads() -> int | None:
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' elsewhere."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + name):
            return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
    }


def weighted_median(values: list[float], weights: list[float]) -> float:
    pairs = sorted(zip(values, weights))
    half, seen = sum(w for _, w in pairs) / 2.0, 0.0
    for value, weight in pairs:
        seen += weight
        if seen >= half:
            return value
    raise ValueError("weighted_median needs at least one value")


def at_reference_speed(raw: dict, probes, unit_times: list[float]) -> dict:
    """The timed metrics scaled to a machine on which the reference probe takes probes.reference_s.

    Probe i runs just before unit i and stands for the machine's speed during it, so
    the probe median is weighted by unit time. Wall-time metrics scale by the probes'
    wall time, the CPU metric by their CPU time. The measured values stay in the
    result as raw_<name>.
    """
    probe_s = weighted_median(probes.wall, unit_times)
    wall_speed = probes.reference_s / probe_s
    cpu_speed = probes.reference_s / weighted_median(probes.cpu, unit_times)
    return {
        **raw,
        **{f"raw_{k}": raw[k] for k in SCALED},
        "samples_per_s": raw["samples_per_s"] / wall_speed,
        "step_s_p50": raw["step_s_p50"] * wall_speed,
        "step_s_tail": raw["step_s_tail"] * wall_speed,
        "cpu_s_per_step": raw["cpu_s_per_step"] * cpu_speed,
        "probe_s": probe_s,
        "probes": len(probes.wall),
    }


def layer_metrics(tracer, window, setup_windows, per_unit: int, traced: dict, untraced: dict, root_span: str | None):
    """Per-layer metrics (per training step, or per eval pass) and the self-time table."""
    from tracing import command_overhead, coverage, pass_split, self_times

    spans = tracer.spans
    table = self_times(spans, *window)

    def inclusive(name):
        return table.get(name, {}).get("inclusive_s", 0.0) / per_unit

    def self_s(name):
        return table.get(name, {}).get("self_s", 0.0) / per_unit

    def calls(name):
        return table.get(name, {}).get("calls", 0) / per_unit

    m = {
        "trainer.prepare_batch_s": inclusive("trainer.prepare_batch"),
        "trainer.optimizer_s": inclusive("trainer.optimizer"),
        "trainer.optimizer_calls": calls("trainer.optimizer"),
        "trainer.save_checkpoint_s": inclusive("trainer.save_checkpoint"),
        "trainer.checkpointing.recompute_s": inclusive("trainer.checkpointing.recompute"),
        "unicl.loss_s": inclusive("unicl.loss"),
        "numerics.backward_s": self_s("numerics.backward"),
        "numerics.container.write_s": inclusive("numerics.container.write"),
        "numerics.container.bytes_written": table.get("numerics.container.write", {}).get("n", 0) / per_unit,
        "numerics.container.read_s": inclusive("numerics.container.read"),
        "encoders.image_forward_s": inclusive("encoders.image_forward"),
        "encoders.image_forward_calls": calls("encoders.image_forward"),
        "encoders.image_rows_per_call": table.get("encoders.image_forward", {}).get("n", 0) / max(1, table.get("encoders.image_forward", {}).get("calls", 0)),
        "encoders.text_forward_s": inclusive("encoders.text_forward"),
        "encoders.text_forward_calls": calls("encoders.text_forward"),
        "encoders.video_forward_s": inclusive("encoders.video_forward"),
        "cli.command_overhead_s": command_overhead(spans, *window) / per_unit,
    }
    pass1, pass3 = pass_split(spans, *window)
    m["trainer.grad_cache.pass1_s"] = pass1 / per_unit
    m["trainer.grad_cache.pass3_forward_s"] = pass3 / per_unit
    for layer in ("prompt_sets", "zero_shot", "retrieval", "linear_probe", "few_shot", "regions"):
        m[f"evaluation.{layer}_s"] = inclusive(f"evaluation.{layer}")
    for op in TRACE_OPS:
        m[f"numerics.op_calls.{op}"] = calls(f"numerics.op.{op}")
        m[f"numerics.op_s.{op}"] = self_s(f"numerics.op.{op}")

    setup_tables = [self_times(spans, lo, hi) for lo, hi in setup_windows]
    for key, name in (("synth_s", "curation.synth"), ("dedup_s", "curation.dedup"), ("curate_s", "curation.curate")):
        m[f"curation.{key}"] = statistics.median(t.get(name, {}).get("inclusive_s", 0.0) for t in setup_tables)

    # Layer self time inside the timed units over the untraced wall time of those units.
    m["trace.coverage"] = coverage(spans, *window, root_span) / sum(untraced["unit_times"])
    m["trace.overhead_per_step_s"] = (sum(traced["unit_times"]) - sum(untraced["unit_times"])) / len(untraced["unit_times"])
    m["trace.overhead_share"] = sum(traced["unit_times"]) / sum(untraced["unit_times"]) - 1.0
    return m, table


def run_workload(args) -> dict:
    if not (ROOT / "src" / "florence_mini" / "__init__.py").is_file():
        raise SystemExit(f"error: {ROOT}/src/florence_mini not found; run from the repository root")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS, Check

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or 'all'")
    workload = WORKLOADS[args.workload]
    import_s = time.perf_counter() - _PROCESS_T0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_times, setup_windows = [], []
        for rep in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            ctx = workload.setup(work / f"setup{rep}", args.seed)
            t1 = time.perf_counter()
            setup_times.append(t1 - t0)
            setup_windows.append((t0, t1))
        units = workload.units(args.seconds)

        if tracer is not None:
            tracer.unpatch()
        res = workload.run(ctx, units, "timed")
        check = Check()
        workload.check(ctx, res, check)
        summary = {
            "setup_s": import_s + statistics.median(setup_times),
            **at_reference_speed(workload.summary(res), res["probes"], res["unit_times"]),
            **workload.quality(res),
        }

        layers = table = None
        if tracer is not None:
            tracer.install()
            lo = time.perf_counter()
            traced = workload.run(ctx, units, "traced")
            window = (lo, time.perf_counter())
            tracer.unpatch()
            workload.check(ctx, traced, check)
            check("tracing leaves every result unchanged", workload.quality(traced) == workload.quality(res))
            per_unit = res.get("passes", units)
            root_span = None if "passes" in res else "trainer.step"
            layers, table = layer_metrics(tracer, window, setup_windows, per_unit, traced, res, root_span)
            layers["loss_final"] = summary["loss_final"]
            for key in ("records_in", "records_out"):
                layers[f"curation.{key}"] = ctx["stats"][key]
            OUT.mkdir(parents=True, exist_ok=True)
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = res["units"] + len(check.results)
    failed = check.failed + res["failed_units"]
    summary["failure_ratio"] = failed / attempted
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": environment(), "setup_times": setup_times, "import_s": import_s, "summary": summary,
        "unit_times": res["unit_times"],
        "layers": layers, "self_times": table, "checks": check.results, "attempted": attempted, "failed": failed,
    }


def load_spec() -> dict:
    with open(Path(__file__).resolve().parent.parent / "BENCHMARK.json") as fh:
        return json.load(fh)


def report(result: dict, spec: dict) -> dict:
    """Print the human-readable table and return the contract's JSON object."""
    s, env = result["summary"], result["env"]
    print(f"# {result['workload']} seed={result['seed']} seconds={result['seconds']} trace={result['trace']}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# setup repeats {SETUP_REPEATS}: " + " ".join(f"{t:.3f}" for t in result["setup_times"]) + f" s, imports {result['import_s']:.3f} s")
    print(f"# step_s_tail is p{s['tail_percentile']:.1f} of {s['units']} timed steps")
    print(f"# reference probe: time-weighted median {s['probe_s'] * 1e3:.3f} ms over {s['probes']} probes; "
          "samples_per_s, step_s_* and cpu_s_per_step are at reference speed, raw_* as measured")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(failure_ratio="ratio", **{f"raw_{k}": units[k] for k in SCALED})
    for name in (*SCALED, *(f"raw_{k}" for k in SCALED), "setup_s",
                 "peak_activation_scalars", "peak_rss_mb", "loss_final", "failure_ratio"):
        print(f"{name:40s} {s[name]:>16.6g} {units[name]}")
    if result["workload"].startswith("train"):
        print(f"{'train_samples_per_s':40s} {s['samples_per_s']:>16.6g} 1/s")
    else:
        print(f"{'eval_suite_s':40s} {s['step_s_p50']:>16.6g} s")
        print(f"{'eval_cpu_s':40s} {s['cpu_s_per_step']:>16.6g} s")
    if result["layers"] is not None:
        for name, value in sorted(result["layers"].items()):
            if name == "loss_final":
                continue
            print(f"{name:40s} {value:>16.6g} {units.get(name, 's' if name.endswith('_s') else 'count')}")
        print("# self time per span, timed window: name calls inclusive_s self_s")
        for name, row in sorted(result["self_times"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"#   {name:38s} {row['calls']:>8d} {row['inclusive_s']:>10.4f} {row['self_s']:>10.4f}")
    for name, ok, detail in result["checks"]:
        print(f"# check {'PASS' if ok else 'FAIL'}: {name}" + (f" ({detail})" if detail else ""))
    chosen = spec["per_layer"] if result["trace"] else spec["end_to_end"]
    source = result["layers"] if result["trace"] else s
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": float(source[m["name"]]), "unit": m["unit"]} for m in chosen},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    if args.workload == "all":
        rc = 0
        for name in [w["name"] for w in spec["workloads"]]:
            argv_w = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", str(args.trace)]
            rc |= subprocess.run(argv_w, check=False).returncode
        return rc
    result = run_workload(args)
    line = report(result, spec)
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({**result, "output": line}, fh, indent=1, default=str)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
