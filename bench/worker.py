"""One pass of one workload in a fresh interpreter.

Started by ``bench/run.py`` with the pass directory as working directory
and ``src`` on ``PYTHONPATH``.  Writes ``result.json`` (and ``spans.jsonl``
when traced) into the working directory.  With WORKLOAD ``setup`` it stops
once set-up is done.

    python3 bench/worker.py WORKLOAD SEED TINY TRACE
"""

import sys
import time

import erlab.cli

# Set-up ends here: interpreter start, imports and the CLI parser, which is
# what every `erlab` invocation pays before doing any work.  What only the
# benchmark needs is imported after.
erlab.cli.build_parser()
READY_AT = time.monotonic()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402  (bench/ is sys.path[0])
import tracer as trace_layer  # noqa: E402
from workloads import Workload  # noqa: E402


def main() -> int:
    name, seed, tiny, traced = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", sys.argv[4] == "1"
    if name == "setup":
        Path("result.json").write_text(json.dumps({"ready_at": READY_AT,
                                                   "erlab_file": erlab.cli.__file__}))
        return 0
    workload = Workload(name, seed, tiny)
    tracer = sampler = None
    if traced:
        tracer = trace_layer.Tracer()
        trace_layer.install(tracer)
        tracer.start("workload")
        start = time.perf_counter()
        workload.run(tracer)
        wall = time.perf_counter() - start
        root = tracer.stop()
        wall_traced = root["end"] - root["start"]
    else:
        # speed samples only in untraced passes, so that no span holds kernel time
        sampler = speed.SpeedSampler()
        sampler.start()
        workload.run(None)
        sampler.stop()
        wall = sampler.raw_s()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    failures = workload.check()
    digest = hashlib.sha256()
    for item, data in workload.digest_items():
        digest.update(item.encode() + b"\0" + str(len(data)).encode() + b"\0" + data)
    result = {
        "ready_at": READY_AT,
        "wall_s": wall,
        "calibrated_wall_s": sampler.calibrated_s() if sampler else None,
        "kernel_s": sampler.kernel_median_s() if sampler else None,
        "peak_rss_mb": peak_kb / 1024.0,
        "attempted": workload.attempted,
        "failures": failures,
        "digest": digest.hexdigest(),
        "outcome": workload.outcome(),
        "erlab_file": erlab.cli.__file__,
    }
    if tracer is not None:
        records = tracer.records()
        layers = trace_layer.layer_metrics(records)
        layers["trace.wall_s"] = wall_traced
        result["layers"] = layers
        with open("spans.jsonl", "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
    Path("result.json").write_text(json.dumps(result, sort_keys=True), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
