"""One benchmark round in a fresh process (run.py starts it, one at a time).

    python3 perfbench/child.py LAUNCH MODE WORKLOAD SEED OUT_DIR [TRACE_FILE]

LAUNCH is the CLOCK_MONOTONIC time at which the parent started this process,
so `setup_s` covers the interpreter, the numpy/BLAS and prunelab imports and
config validation. MODE is `setup` (stop once ready), `run` (one round, no
tracing) or `trace` (the same round traced, plus microbenchmarks). The last
stdout line is one JSON object.

A round is three operations: one `run_experiment`, then the forward
throughput of the compacted model and of an unpruned model of the same
architecture on the eval batch. An operation fails if it raises or if a
check on its outputs fails.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INFER_MIN_CALLS = 10
INFER_MIN_SECONDS = 2.0
INFER_CHUNK_SECONDS = 0.25


def model_dict(model) -> dict:
    return {"arch": model.arch.to_dict(), "conv": model.conv_weights, "fc_weight": model.fc_weight,
            "fc_bias": model.fc_bias, "masks": model.masks}


def time_forwards(forward, models: list, x) -> list[tuple[float, list]]:
    """Images per second of each model from the median of its calls on x,
    after warm-up. The models take turns in short chunks, so each one's calls
    spread over the whole measurement. Returns the outputs too, for checking."""
    import statistics

    for m in models:
        forward(m, x)
        forward(m, x)
    times = [[] for _ in models]
    outputs = [[] for _ in models]
    while any(len(t) < INFER_MIN_CALLS or sum(t) < INFER_MIN_SECONDS for t in times):
        for m, ts, outs in zip(models, times, outputs):
            chunk_end = time.perf_counter() + INFER_CHUNK_SECONDS
            while time.perf_counter() < chunk_end:
                t = time.perf_counter()
                outs.append(forward(m, x))
                ts.append(time.perf_counter() - t)
    return [(x.shape[0] / statistics.median(ts), outs) for ts, outs in zip(times, outputs)]


def run_round(config, workload: str, out_dir: Path, trace_file: Path | None) -> dict:
    import resource
    import traceback

    import numpy as np
    from prunelab import checkpoint, experiment, model as mdl

    import checks
    import micro
    import tracing
    import workloads

    out = {"attempted": 0, "failed": 0, "failures": []}

    def operation(fn):
        out["attempted"] += 1
        try:
            fails = fn()
        except Exception:
            traceback.print_exc()
            fails = [f"raised {traceback.format_exc().strip().splitlines()[-1]}"]
        if fails:
            out["failed"] += 1
            out["failures"] += fails

    tracer = tracing.Tracer() if trace_file else None
    state = {}

    def run_op():
        try:
            if tracer:
                tracer.install()
            t = time.perf_counter()
            res = experiment.run_experiment(config, out_dir)
            out["run_s"] = time.perf_counter() - t
            out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
            loaded, _ = checkpoint.load_checkpoint(out_dir / "final.ckpt")
        finally:
            if tracer:
                tracer.uninstall()
        final = res["model"]
        data = experiment.load_dataset(config)
        n = min(config.eval_batch_size, len(data.eval_x))
        state.update(final=final, x=data.eval_x[:n], y=data.eval_y[:n])
        report = json.loads((out_dir / "report.json").read_text())
        last = report["epochs"][-1]
        state["logits"] = mdl.forward(final, state["x"])
        out["hashes"] = checks.file_hashes(out_dir)
        steps = config.epochs // config.interval + (config.epochs % config.interval > 0)
        fails = checks.check_logits(model_dict(final), state["x"], state["logits"], state["y"], last["eval_top1"])
        fails += checks.check_compaction(config.arch, final.arch.to_dict(), config.prune_rate,
                                         report["flops"]["pruned_macs"])
        fails += checks.check_prune_steps(report["prune_steps"], config.arch, config.prune_rate, steps)
        fails += checks.check_same_model(model_dict(loaded), model_dict(final))
        if workload in workloads.TOP1_FLOOR:
            fails += checks.check_floor(last["eval_top1"], workloads.TOP1_FLOOR[workload])
        return fails

    def infer_op():  # times the dense model too, interleaved; dense_infer_op checks it
        state["dense"] = mdl.build_model(config.architecture(), seed=config.seed)
        state["timed"] = time_forwards(mdl.forward, [state["final"], state["dense"]], state["x"])
        rate, outputs = state["timed"][0]
        out["infer_images_per_s"] = rate
        return checks.check_repeatable([state["logits"]] + outputs)

    def dense_infer_op():
        rate, outputs = state["timed"][1]
        out["dense_infer_images_per_s"] = rate
        return checks.check_repeatable(outputs) + checks.check_logits(model_dict(state["dense"]), state["x"], outputs[0])

    operation(run_op)
    operation(infer_op)
    operation(dense_infer_op)

    if tracer:
        layers = tracing.layer_metrics(tracer.spans)
        layers["checkpoint.bytes"] = ((out_dir / "final.ckpt").stat().st_size, "B")
        rng = np.random.default_rng(config.seed)
        for bench in (lambda: micro.conv_layers(config.arch, config.batch_size, rng), lambda: micro.criteria_wide(rng)):
            metrics, fails = bench()
            layers.update(metrics)
            out["failures"] += fails
        out["layers"] = layers
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        trace_file.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "note"],
                                          "spans": tracer.spans}))
    return out


def main() -> int:
    launch = float(sys.argv[1])
    mode, workload, seed, out_dir = sys.argv[2], sys.argv[3], int(sys.argv[4]), Path(sys.argv[5])
    trace_file = Path(sys.argv[6]) if mode == "trace" else None

    import prunelab  # loads numpy and BLAS too
    from prunelab import experiment

    import workloads

    if not Path(prunelab.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"prunelab imported from {prunelab.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 3
    config = experiment.ExperimentConfig.from_dict(workloads.config_fields(workload, seed))
    config.validate()
    result = {"setup_s": time.clock_gettime(time.CLOCK_MONOTONIC) - launch}
    if mode != "setup":
        result.update(run_round(config, workload, out_dir, trace_file))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
