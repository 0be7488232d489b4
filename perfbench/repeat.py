"""One repeat of a workload, in a fresh interpreter.

    python3 perfbench/repeat.py <checkout root> <out dir> <check seed> <trace 0|1> <config file>...

First times the set-up a user pays before any work: ``import parapos.cli``,
then loading and validating each config file, then
``ScenarioConfig.build_problem`` for each.  Then times one
``parapos.cli.main(["run", <configs>, "--out", <out dir>, "--seed", <n>])``
call, traced when asked.  Prints one JSON object: the set-up times, the
call's wall time and exit code, the process's peak resident memory, and for
a traced call its spans and counters.  The CLI's own log and progress lines
go to standard error.
"""

import json
import resource
import sys
import time
from contextlib import nullcontext
from dataclasses import asdict
from pathlib import Path


def main(argv):
    root, out, check_seed, trace, refs = (
        Path(argv[0]), argv[1], argv[2], argv[3] == "1", argv[4:])
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import parapos.cli
    from parapos.config import load_config
    imported = time.perf_counter()
    if not Path(parapos.cli.__file__).resolve().is_relative_to(src):
        sys.exit(f"imported parapos from {parapos.cli.__file__}, not from {src}")
    configs = [load_config(ref) for ref in refs]
    loaded = time.perf_counter()
    for config in configs:
        config.build_problem()
    built = time.perf_counter()

    import spans
    tracer = spans.Tracer() if trace else None
    with tracer or nullcontext():
        begin = time.perf_counter()
        code = parapos.cli.main(["run", *refs, "--out", out, "--seed", check_seed])
        wall = time.perf_counter() - begin

    result = {
        "import_s": imported - start, "load_s": loaded - imported,
        "build_problem_s": built - loaded, "wall_s": wall, "exit_code": code,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if tracer is not None:
        result["spans"] = [asdict(s) for s in tracer.spans]
        result["counts"] = dict(tracer.counts)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
