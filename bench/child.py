"""One measured ``gainlab run`` in a fresh process.

Usage: child.py MODE WORKERS OUT_ROOT CONFIG [CONFIG ...]

MODE is ``setup`` (stop after set-up), ``run`` (untraced) or ``trace``
(layers wrapped by tracer.py, spans written to OUT_ROOT/spans.json).
Config i writes its outputs to OUT_ROOT/i. Prints one JSON object on the
last line of stdout. Run from the root of a gainlab checkout.
"""

import dataclasses
import json
import os
import resource
import sys
import time


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main(argv) -> int:
    mode, workers, out_root, configs = argv[0], int(argv[1]), argv[2], argv[3:]
    src = os.path.abspath("src")
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    import gainlab
    from gainlab import cli
    loaded = []
    for i, path in enumerate(configs):
        config = dataclasses.replace(cli.load_config(path),
                                     out=os.path.join(out_root, str(i)))
        findings = cli.validate(config)
        if findings:
            print(f"{path}: {findings}", file=sys.stderr)
            return 1
        loaded.append(config)
    setup_s = time.perf_counter() - t0
    if not os.path.abspath(gainlab.__file__).startswith(src + os.sep):
        print(f"gainlab imported from {gainlab.__file__}, not {src}", file=sys.stderr)
        return 1
    result = {"setup_s": setup_s}
    if mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    if mode == "trace":
        import tracer as tracing
        tracer = tracing.Tracer()
        result["wrapped"] = tracing.install(tracer)

    self0 = resource.getrusage(resource.RUSAGE_SELF)
    t1 = time.perf_counter()
    result["exit_codes"] = [cli.run(config, workers=workers) for config in loaded]
    result["wall_s"] = time.perf_counter() - t1
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    # pool workers are joined when cli.run returns, so their usage is in here
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    result["cpu_s"] = _cpu(self1) - _cpu(self0) + _cpu(children)
    result["peak_rss_mb"] = max(self1.ru_maxrss, children.ru_maxrss) / 1024.0
    if tracer is not None:
        result["table"] = tracer.table()
        with open(os.path.join(out_root, "spans.json"), "w") as fh:
            json.dump([{"id": i, "name": n, "start": s, "end": e, "parent": p}
                       for i, n, s, e, p in tracer.spans], fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
